#!/usr/bin/env python3
"""Alternating A/B runs of the end-to-end benchmark: a git revision against the working tree.

Run from the repository root:

    python3 scripts/ab_bench.py HEAD --workload eval_loop --seed 7 --seconds 8 --pairs 10

The revision is unpacked with ``git archive REV | tar -x`` into a temporary
directory under the ignored ``.bench_work/``, so both sides write their
outputs to the same file system; no tracked file is touched and no worktree
is added. Each pair
runs ``bench/run.py --trace 0`` once on the revision and once on the working
tree, each from its own root; which side runs first alternates by pair. Per metric the table gives the median
and quartiles of each side and how many pairs the working tree won, where
"won" follows the metric's ``better`` direction in BENCHMARK.json. The last
line says whether the two sides' chain outputs had the same SHA-256 digests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def bench_run(root: Path, args) -> tuple[dict[str, float], dict[str, str]]:
    """One ``bench/run.py --trace 0`` run from root: its metrics and output digests."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench run in {root} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"bench run in {root} reported failed commands:\n{done.stdout}")
    record = json.loads((root / ".bench_work" / args.workload / "result.json").read_text())
    return {name: entry["value"] for name, entry in result["metrics"].items()}, record["digests"]


def summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.3g} [{q1:.3g}–{q3:.3g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=8.0, help="seconds per bench run")
    parser.add_argument("--pairs", type=int, default=10, help="alternating runs per side")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    tree = Path.cwd()
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    higher_wins = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    (tree / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab_bench_", dir=tree / ".bench_work") as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev], cwd=tree,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        runs: dict[str, list[dict[str, float]]] = {"rev": [], "tree": []}
        digests: dict[str, dict[str, str]] = {}
        sides = (("rev", base), ("tree", tree))
        for i in range(args.pairs):
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                metrics, digests[side] = bench_run(root, args)
                runs[side].append(metrics)
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {args.rev} → working tree, "
          f"median [q1–q3] (working-tree wins of {args.pairs} pairs)")
    for name in runs["tree"][0]:
        old = [run[name] for run in runs["rev"]]
        new = [run[name] for run in runs["tree"]]
        sign = 1 if higher_wins.get(name, False) else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        print(f"  {name}: {summary(old)} → {summary(new)} ({wins}/{args.pairs})")
    changed = sorted(k for k in digests["tree"] if digests["tree"][k] != digests["rev"].get(k))
    print("chain outputs: " + (f"differ in {', '.join(changed)}" if changed else "identical"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
