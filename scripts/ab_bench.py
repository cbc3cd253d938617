#!/usr/bin/env python3
"""Alternating A/B runs of the end-to-end benchmark: a git revision against the working tree.

Run from the repository root:

    python3 scripts/ab_bench.py HEAD --workload eval_loop --seed 7 --seconds 8 --pairs 10

Both sides run from fresh copies, side by side in one temporary directory
under the ignored ``.bench_work/``: the revision unpacked with ``git archive
REV | tar -x`` into ``old/``, and the working tree's files (tracked and
untracked, not ignored, as ``git ls-files -co --exclude-standard`` lists
them) copied into ``new/``. So neither side reads a bytecode cache the other
lacks, both run from the same path depth, and no tracked file is touched and
no worktree is added. Each pair runs ``bench/run.py --trace 0`` once on each
copy; which side runs first alternates by pair. Per metric the table gives
the median and quartiles of each side, the median over pairs of the working
tree's value divided by the revision's, and how many pairs the working tree
won, where "won" follows the metric's ``better`` direction in BENCHMARK.json.
A metric whose median per-pair ratio is worse than its ``bound`` there, as a
fraction of the revision's value, is marked ``over bound``; a metric with no
bound is never marked.
The two runs of a pair share the machine's state at that time, so the
per-pair ratio cancels most of the drift that moves whole runs. The last
two lines say whether the two copies hold the same benchmark
(``BENCHMARK.json`` and the files under ``bench/``, by SHA-256 digest), so
that both sides ran one harness, and whether their chain outputs had the
same digests. The exit code is 1 when either differs, 0 when both are
identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
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


def copy_tree_files(tree: Path, dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files into dest."""
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=tree,
                            capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = tree / name
        if source.is_file():  # a tracked file deleted on disk is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def bench_digests(root: Path) -> dict[str, str]:
    """SHA-256 of BENCHMARK.json and of each file under bench/ in root, by relative path."""
    files = [root / "BENCHMARK.json", *(root / "bench").rglob("*")]
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files if path.is_file()}


def verdict(before: dict[str, str], after: dict[str, str]) -> str:
    """'identical', or 'differ in' and each name whose digest is not the same on both sides."""
    names = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    return f"differ in {', '.join(names)}" if names else "identical"


def summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.3g} [{q1:.3g}–{q3:.3g}]"


def pair_ratio(old: list[float], new: list[float]) -> float | None:
    """Median over pairs of new / old; None when a revision value is 0."""
    if not all(old):
        return None
    return statistics.median(b / a for a, b in zip(old, new))


def over_bound(ratio: float | None, higher_wins: bool, bound: float | None) -> bool:
    """Whether the ratio tree/rev is worse than 1 by more than bound."""
    if ratio is None or bound is None:
        return False
    return ratio < 1 - bound if higher_wins else ratio > 1 + bound


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
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    (tree / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab_bench_", dir=tree / ".bench_work") as tmp:
        old_root, new_root = Path(tmp) / "old", Path(tmp) / "new"
        old_root.mkdir()
        new_root.mkdir()
        archive = subprocess.run(["git", "archive", args.rev], cwd=tree,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old_root)], input=archive, check=True)
        copy_tree_files(tree, new_root)
        bench_files = verdict(bench_digests(old_root), bench_digests(new_root))
        runs: dict[str, list[dict[str, float]]] = {"rev": [], "tree": []}
        digests: dict[str, dict[str, str]] = {}
        sides = (("rev", old_root), ("tree", new_root))
        for i in range(args.pairs):
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                metrics, digests[side] = bench_run(root, args)
                runs[side].append(metrics)
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {args.rev} → working tree, "
          f"median [q1–q3], median per-pair ratio tree/rev "
          f"(working-tree wins of {args.pairs} pairs)")
    for name in runs["tree"][0]:
        old = [run[name] for run in runs["rev"]]
        new = [run[name] for run in runs["tree"]]
        sign = 1 if higher_wins.get(name, False) else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        ratio = pair_ratio(old, new)
        marker = " over bound" if over_bound(ratio, sign > 0, bounds.get(name)) else ""
        print(f"  {name}: {summary(old)} → {summary(new)}, "
              f"ratio {'n/a' if ratio is None else f'{ratio:.3f}'} ({wins}/{args.pairs}){marker}")
    chain_outputs = verdict(digests["rev"], digests["tree"])
    print(f"bench files: {bench_files}")
    print(f"chain outputs: {chain_outputs}")
    return 0 if bench_files == chain_outputs == "identical" else 1


if __name__ == "__main__":
    sys.exit(main())
