"""Quick self-check of the benchmark driver and its traced run.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench

Each workload runs at a small --scale in both modes; the check is that the
run is correct and emits every metric BENCHMARK.json names, with every layer
live, not that it is fast.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spatialbench.errors import ParseError  # noqa: E402
from spatialbench.prompts import parse_prompt  # noqa: E402
from spatialbench.sceneio import read_depth  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_driver():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


def test_pgm_writer_reads_back_through_sceneio(tmp_path):
    values = np.random.default_rng(0).integers(0, 65536, size=(7, 5), dtype=np.uint16)
    path = tmp_path / "d.pgm"
    workloads.write_pgm16(path, values)
    assert (read_depth(path).values == values).all()
    assert (workloads.read_pgm16(path) == values).all()


def test_unparseable_lines_do_not_parse():
    rng = random.Random(0)
    for _ in range(200):
        with pytest.raises(ParseError):
            parse_prompt(workloads.unparseable_line(rng))


def test_clause_kinds_agree_with_parser(tmp_path):
    files = workloads.ChainFiles(tmp_path)
    wl = workloads.scaled(workloads.WORKLOADS["eval_loop"], 0.1)
    name, _, argv = workloads.chain_commands(wl, files, seed=3)[0]
    assert name == "gen_prompts"
    from spatialbench.cli import main

    assert main(argv) == 0
    for line in files.prompts.read_text(encoding="utf-8").splitlines():
        spec = parse_prompt(line)
        assert checks.clause_kinds(line) == [c.kind.value for c in spec.clauses]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("a", 0.0, 10.0, -1, True, False),
        ("b", 1.0, 4.0, 0, True, False),
        ("b", 2.0, 3.0, 1, False, False),
        ("c", 5.0, 7.0, 0, True, False),
    ]
    times = tracer.layer_times()
    assert times["a.self_s"] == 5.0
    assert times["b.s"] == 3.0  # the nested call is not counted twice
    assert times["b.self_s"] == 3.0
    assert times["b.calls"] == 2


def test_tracing_restores_the_package():
    import spatialbench.cli as cli
    import spatialbench.geometry as geometry
    import spatialbench.sceneio as sceneio

    before = (cli.main, sceneio.parse_prompt, geometry.DepthMap.__init__)
    with tracing.installed(tracing.Tracer()):
        assert sceneio.parse_prompt is not before[1]
    assert (cli.main, sceneio.parse_prompt, geometry.DepthMap.__init__) == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                  "--trace", trace, "--scale", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"]
        if m["name"] in ("trace.overhead_s", "extraction.between_yield"):
            continue  # a difference of two timings, and a ratio that small scenes may leave at 0
        # every command runs on every workload, so every layer is live
        assert value["value"] > 0, m["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "eval_loop", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
