"""Seeded end-to-end and per-layer benchmark of the spatialbench CLI.

Run from the repository root:

    python3 bench/run.py --workload eval_loop --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): eval_loop, extract_dense, extract_sparse.

With ``--trace 0`` every command of the workload's chain runs as its own
``python -m spatialbench.cli`` process (PYTHONPATH=src), one at a time, and
the chain repeats for ``--seconds``. The run reports the medians over the
repetitions of: per-command wall seconds with process start included,
items per second, the start-up time of a fresh interpreter that imports
the CLI and builds its parser (three starts after each chain), and peak RSS
per command (from os.wait4); plus the bytes the chain writes.

With ``--trace 1`` the same chain runs in this process through
``spatialbench.cli.main``, alternately untraced and traced (see tracing.py),
and the run reports the per-layer metrics of the median traced chain.

Before timing, one chain runs and its outputs are checked (checks.py); every
later chain must reproduce the same SHA-256 digests. Inputs, outputs, the
full result record and the spans of the last traced chain go to
``.bench_work/<workload>/``. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
from workloads import (
    ITEM_COMMANDS,
    WORKLOADS,
    ChainFiles,
    chain_commands,
    eligible_histogram,
    make_scene_set,
    scaled,
    write_tore_input,
)

SETUP_STARTS_PER_REP = 3
MIN_REPS = 3

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "gen_prompts_s": "s",
    "stub_gen_s": "s",
    "evaluate_s": "s",
    "bias_report_s": "s",
    "tore_s": "s",
    "extract_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
PER_LAYER_UNITS = {
    "sceneio.load_eval_records.self_s": "s",
    "sceneio.load_scenes.self_s": "s",
    "sceneio.scene_from_dict.self_s": "s",
    "sceneio.scene_from_dict.calls": "count",
    "sceneio.read_depth.s": "s",
    "sceneio.read_depth.calls": "count",
    "sceneio.eval_record_to_dict.s": "s",
    "sceneio.relations_to_dict.s": "s",
    "sceneio.write_jsonl.self_s": "s",
    "sceneio.bytes_read": "B",
    "sceneio.bytes_written": "B",
    "sceneio.inline_depth_records": "count",
    "geometry.DepthMap.init.s": "s",
    "geometry.DepthMap.init.calls": "count",
    "geometry.average_depth.s": "s",
    "geometry.average_depth.calls": "count",
    "geometry.check_directional.calls": "count",
    "geometry.check_next.calls": "count",
    "geometry.check_between.calls": "count",
    "geometry.check_depth_relation.calls": "count",
    "extraction.extract_pairwise.self_s": "s",
    "extraction.extract_between.self_s": "s",
    "extraction.extract_scene.calls": "count",
    "extraction.eligible_objects": "count",
    "extraction.pairs_considered": "count",
    "extraction.triples_considered": "count",
    "extraction.relations_out": "count",
    "extraction.between_yield": "ratio",
    "prompts.parse_prompt.s": "s",
    "prompts.parse_prompt.calls": "count",
    "prompts.render_prompt.s": "s",
    "prompts.render_prompt.calls": "count",
    "prompts.sample_prompt_set.s": "s",
    "lexicon.token_index.s": "s",
    "lexicon.token_index.calls": "count",
    "lexicon.max_phrase_tokens.calls": "count",
    "evaluation.score_record.self_s": "s",
    "evaluation.score_record.calls": "count",
    "evaluation.score_clause.self_s": "s",
    "evaluation.score_clause.calls": "count",
    "evaluation.evaluate_records.self_s": "s",
    "evaluation.evaluate_records.calls": "count",
    "evaluation.clauses_scored": "count",
    "evaluation.clause_hit_ratio": "ratio",
    "stub.stub_generate.self_s": "s",
    "stub.records": "count",
    "tore.transform_prompt.self_s": "s",
    "tore.transform_prompt.calls": "count",
    "tore.lines_flipped": "count",
    "tore.lines_passthrough": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class CommandResult:
    """One command of one chain: wall seconds, peak RSS and what went wrong, if anything."""

    name: str
    seconds: float
    rss_mb: float | None
    problem: str | None


# ---------------------------------------------------------------------------
# running commands


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SPATIALBENCH_CONFIG"}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stderr_problem(code: int, stderr: str) -> str | None:
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-500:]}"
    if "Traceback" in stderr:
        return f"traceback on stderr: {stderr.strip()[-500:]}"
    return None


class ProcessRunner:
    """Runs each command as a fresh ``python -m spatialbench.cli`` process."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.env = _child_env(root)
        self.stderr_path = work / "stderr.txt"

    def run(self, name: str, argv: list[str]) -> CommandResult:
        with open(self.stderr_path, "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "spatialbench.cli", *argv],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return CommandResult(name, seconds, usage.ru_maxrss / 1024,
                             _stderr_problem(proc.returncode, stderr))

    def setup_seconds(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and building its parser."""
        result = self.run("setup", ["--help"])
        if result.problem:
            raise RuntimeError(f"spatialbench.cli --help failed: {result.problem}")
        return result.seconds


class InProcessRunner:
    """Runs each command through ``spatialbench.cli.main`` in this process."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        os.environ.pop("SPATIALBENCH_CONFIG", None)
        import spatialbench.cli  # noqa: F401

        self.cli = sys.modules["spatialbench.cli"]

    def run(self, name: str, argv: list[str]) -> CommandResult:
        stderr = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)  # looked up per call, so a traced main is used
        except (Exception, SystemExit):
            # a crash is a failed command; the benchmark goes on with the next one
            seconds = perf_counter() - start
            return CommandResult(name, seconds, None, traceback.format_exc(limit=-3))
        seconds = perf_counter() - start
        return CommandResult(name, seconds, None, _stderr_problem(code, stderr.getvalue()))


# ---------------------------------------------------------------------------
# one workload run


class Run:
    """Inputs, checked first chain, and the ledger of attempted and failed commands."""

    def __init__(self, root: Path, workload_name: str, seed: int, scale: float):
        self.root = root
        self.workload = scaled(WORKLOADS[workload_name], scale)
        self.seed = seed
        self.work = root / ".bench_work" / workload_name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.files = ChainFiles(self.work)
        self.scenes = make_scene_set(self.workload.scenes, seed, self.files.scenes)
        self.commands = chain_commands(self.workload, self.files, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.unparseable_at: list[int] = []

    def _record(self, result: CommandResult, problem: str | None = None) -> None:
        self.attempted += 1
        problem = result.problem or problem
        if problem:
            self.failed += 1
            self.problems.append(f"{result.name}: {problem}")

    @staticmethod
    def _digest(outputs) -> str | None:
        try:
            return checks.digest(outputs)
        except OSError:
            return None

    def first_chain(self, runner) -> None:
        """Run the chain once, check every output and keep the digests."""
        files = self.files
        results = {}
        for name, outputs, argv in self.commands:
            results[name] = runner.run(name, argv)
            if name == "gen_prompts" and results[name].problem is None:
                self.unparseable_at = write_tore_input(
                    files.prompts, files.tore_in, self.workload.prompts.tore_repeats, self.seed)
            self.digests[name] = self._digest(outputs)
        rerun = runner.run("tore", ["tore", "--profile", str(files.profile), str(files.tore_out),
                                    "--output", str(files.tore_again)])
        checked = {
            "evaluate": lambda: checks.check_evaluate(files),
            "bias_report": lambda: checks.check_bias(files),
            "tore": lambda: ([rerun.problem] if rerun.problem else [])
            + checks.check_tore(files, self.unparseable_at),
            "extract": lambda: checks.check_extract(
                files, self.root, range(min(self.workload.naive_sample, len(self.scenes)))),
        }
        for name, _, _ in self.commands:
            problem = results[name].problem
            if problem is None and self.digests[name] is None:
                problem = "an output file is missing"
            if problem is None and name in checked:
                try:
                    found = checked[name]()
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    found = [f"output unreadable: {exc!r}"]
                problem = "; ".join(found) or None
            self._record(results[name], problem)

    def timed_chain(self, runner) -> dict[str, CommandResult]:
        """Run the chain once more; outputs must match the first chain's digests."""
        results = {}
        for name, outputs, argv in self.commands:
            results[name] = runner.run(name, argv)
            digest = self._digest(outputs)
            same = digest is not None and digest == self.digests[name]
            self._record(results[name], None if same else "output differs from the first chain")
        return results

    def sizes(self) -> dict:
        return {
            "prompts": sum(1 for line in self.files.prompts.read_text(encoding="utf-8").splitlines()
                           if line.strip()) if self.files.prompts.exists() else 0,
            "tore_lines": len(self.files.tore_in.read_text(encoding="utf-8").splitlines())
            if self.files.tore_in.exists() else 0,
            "unparseable_lines": len(self.unparseable_at),
            "scenes": len(self.scenes),
            "scenes_with_depth_file": sum(1 for s in self.scenes if "depth" in s),
            "eligible_objects_histogram": eligible_histogram(self.scenes),
        }

    def items(self) -> int:
        return self.sizes()[self.workload.items]

    def output_bytes(self) -> int:
        return sum(path.stat().st_size for _, outputs, _ in self.commands for path in outputs)


def _environment(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "seed": seed,
    }


def _until(seconds: float, step) -> list:
    """Call step() at least MIN_REPS times, and again while another fits in the time."""
    start = perf_counter()
    deadline = start + seconds
    out = []
    while len(out) < MIN_REPS or perf_counter() + (perf_counter() - start) / len(out) <= deadline:
        out.append(step())
    return out


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    runner = ProcessRunner(run.root, run.work)
    run.first_chain(runner)

    def rep():
        # start-up samples spread over the whole run, between the chains
        return run.timed_chain(runner), [runner.setup_seconds() for _ in range(SETUP_STARTS_PER_REP)]

    reps, setups = zip(*_until(seconds, rep))
    setup = [s for starts in setups for s in starts]
    items, item_names = run.items(), ITEM_COMMANDS[run.workload.items]
    median = statistics.median
    metrics = {
        "items_per_s": median(items / sum(rep[name].seconds for name in item_names) for rep in reps),
        **{f"{name}_s": median(rep[name].seconds for rep in reps) for name, _, _ in run.commands},
        "setup_s": median(setup),
        "peak_rss_mb": median(max(r.rss_mb for r in rep.values()) for rep in reps),
        "output_mb": run.output_bytes() / 1e6,
    }
    raw = {
        "setup_s": setup,
        "chains": [{name: [r.seconds, r.rss_mb] for name, r in rep.items()} for rep in reps],
    }
    return metrics, raw


def measure_per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    runner = InProcessRunner(run.root)
    run.first_chain(runner)  # also fills import and lexicon caches before timing

    def chain_seconds(tracer=None) -> float:
        gc.collect()
        if tracer is None:
            results = run.timed_chain(runner)
        else:
            with tracing.installed(tracer):
                results = run.timed_chain(runner)
        return sum(r.seconds for r in results.values())

    traced = []  # (seconds, tracer) of every traced chain

    def pair():
        untraced = chain_seconds()
        tracer = tracing.Tracer()
        traced.append((chain_seconds(tracer), tracer))
        return untraced

    untraced = _until(seconds, pair)
    # per-layer numbers come from one coherent trace: the median traced chain
    traced.sort(key=lambda t: t[0])
    median_s, typical = traced[(len(traced) - 1) // 2]
    layers = tracing.layer_metrics(typical)
    layers["trace.overhead_s"] = median_s - statistics.median(untraced)
    typical.write_spans(run.work / "trace_spans.jsonl")
    self_times = sorted(((v, k) for k, v in layers.items() if k.endswith(".self_s")), reverse=True)
    raw = {
        "chain_s": {"untraced": untraced, "traced": [t for t, _ in traced]},
        "top_self_s": [[name, value] for value, name in self_times[:3]],
        "all_layers": layers,
    }
    return {name: layers.get(name, 0) for name in PER_LAYER_UNITS}, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input by this factor (for quick self-tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spatialbench" / "cli.py").is_file():
        print(f"error: {root} holds no src/spatialbench; run from the repository root",
              file=sys.stderr)
        return 2
    if not (root / "tests" / "naive_reference.py").is_file():
        print("error: tests/naive_reference.py is missing", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, args.scale)
    if args.trace:
        metrics, raw = measure_per_layer(run, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, raw = measure_end_to_end(run, args.seconds)
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "sizes": run.sizes(),
        "digests": run.digests,
        "problems": run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "metrics": metrics,
        "raw": raw,
    }
    (run.work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("environment " + json.dumps({**record["environment"], **record["sizes"]}))
    for problem in run.problems:
        print(f"FAILED {problem}")
    if args.trace:
        print("top self times: " + ", ".join(f"{n} {v:.3f} s" for n, v in raw["top_self_s"]))
    print(f"fail_ratio {record['fail_ratio']:.4f} ({run.failed} of {run.attempted} commands)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
