#!/usr/bin/env python3
"""End-to-end rewrite demo against the stub generator.

Simulates a generator that is stronger on one side of an opposite pair,
measures the bias from scored records alone, derives a rewrite profile from
the measurement, and shows the accuracy lift from rewriting weak-side
prompts onto the preferred side. Everything is seeded, so reruns match.
"""

from __future__ import annotations

import argparse

from spatialbench import (
    StubGeneratorConfig,
    ToreConfig,
    candidate_pool,
    compute_bias_profile,
    default_objects,
    evaluate_records,
    sample_prompt_set,
    stub_generate,
    transform_spec,
)
from spatialbench.relations import OPPOSITE_PAIRS, RelationKind


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pair", default="top_bottom",
                        choices=[f"{a.value}_{b.value}" for a, b in OPPOSITE_PAIRS],
                        help="opposite pair to simulate")
    parser.add_argument("--strong", type=float, default=0.8,
                        help="stub success rate on the first side")
    parser.add_argument("--weak", type=float, default=0.4,
                        help="stub success rate on the second side")
    parser.add_argument("--count", type=int, default=2000,
                        help="prompts per side")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    first = RelationKind(args.pair.split("_")[0])
    second = first.opposite()
    # a pool of exactly count facts per side, each drawn into one simple prompt
    pool = candidate_pool((first, second), default_objects(), args.count, seed=args.seed)
    specs = sample_prompt_set(pool, {first: args.count, second: args.count}, seed=args.seed)
    strong_prompts = [spec for spec in specs if spec.clauses[0].kind is first]
    weak_prompts = [spec for spec in specs if spec.clauses[0].kind is second]
    stub = StubGeneratorConfig({first: args.strong, second: args.weak},
                               seed=args.seed)
    records, _ = stub_generate(strong_prompts + weak_prompts, stub)

    report = evaluate_records(records)
    measured = report.bias[args.pair]
    print(f"simulated generator: p({first.value})={args.strong}, "
          f"p({second.value})={args.weak}")
    print(f"measured bias: {first.value}={measured[first.value]:.3f}, "
          f"{second.value}={measured[second.value]:.3f}")

    profile = compute_bias_profile(report)
    preferred = profile.preferred((first, second))
    if preferred is None:
        print("pair is tied; nothing to rewrite")
        return 0
    print(f"preferred side: {preferred.value}")

    rewrite = ToreConfig(profile)
    originals = weak_prompts if preferred is first else strong_prompts
    transformed = [transform_spec(spec, rewrite)[0] for spec in originals]
    before, _ = stub_generate(originals, stub)
    after, _ = stub_generate(transformed, stub)
    source = preferred.opposite()
    print(f"{source.value} prompts, soft accuracy before rewrite: "
          f"{evaluate_records(before).soft[source.value]:.3f}")
    print(f"same prompts rewritten to {preferred.value}: "
          f"{evaluate_records(after).soft[preferred.value]:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
