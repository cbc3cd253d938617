#!/usr/bin/env python3
"""Strictness sensitivity sweep over synthetic scenes.

Draws random multi-object scenes, extracts relations at several tau values,
and prints a per-kind count table. Tau divides the extent-relative bands
(alignment, adjacency, depth overlap), so larger tau is stricter and counts
shrink; the table shows which kinds are most sensitive to the choice.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

from spatialbench import (
    BoundingBox,
    DepthMap,
    DetectedObject,
    ExtractionConfig,
    Scene,
    extract_scene,
)
from spatialbench.relations import RelationKind

LABELS = ("bench", "tree", "car", "lamp", "bin", "sign")


def random_scene(rng: random.Random, index: int, size: int, objects: int) -> Scene:
    detections = []
    for _ in range(objects):
        w = rng.randint(size // 16, size // 4)
        h = rng.randint(size // 16, size // 4)
        x = rng.randint(0, size - w)
        y = rng.randint(0, size - h)
        detections.append(DetectedObject(
            rng.choice(LABELS), BoundingBox(x, y, x + w, y + h)))
    depth = DepthMap([[rng.randint(0, 255) for _ in range(size)]
                      for _ in range(size)])
    return Scene(f"scene-{index:04d}", size, size, tuple(detections), depth=depth)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--taus", type=float, nargs="+",
                        default=[1.5, 2.0, 3.0, 5.0, 8.0])
    parser.add_argument("--scenes", type=int, default=200)
    parser.add_argument("--objects", type=int, default=5,
                        help="detections per scene")
    parser.add_argument("--size", type=int, default=128,
                        help="square image side in pixels")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    scenes = [random_scene(rng, i, args.size, args.objects)
              for i in range(args.scenes)]

    counts: dict[float, Counter] = {}
    for tau in args.taus:
        cfg = ExtractionConfig(tau=tau)
        tally = Counter()
        for scene in scenes:
            for rel in extract_scene(scene, cfg):
                tally[rel.kind] += 1
        counts[tau] = tally

    header = f"{'kind':<10}" + "".join(f"tau={tau:<8g}" for tau in args.taus)
    print(f"{args.scenes} scenes, {args.objects} objects each, "
          f"{args.size}x{args.size}")
    print(header)
    print("-" * len(header))
    for kind in RelationKind:
        row = "".join(f"{counts[tau][kind]:<12}" for tau in args.taus)
        print(f"{kind.value:<10}{row}")
    total = "".join(f"{sum(counts[tau].values()):<12}" for tau in args.taus)
    print(f"{'total':<10}{total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
