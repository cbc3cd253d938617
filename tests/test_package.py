"""Package surface: every exported name resolves, and the demo scripts run.

Also how the CLI starts: the prompt and caption commands run without numpy, and
importing spatialbench.cli registers every package module (the benchmark's
tracer rebinds functions across all of them).
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spatialbench

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["spatialbench"] + [
    f"spatialbench.{m.name}" for m in pkgutil.iter_modules(spatialbench.__path__)
]

# The names the package exported when its __init__ imported them eagerly.
EXPORTED = {
    "errors": ["DimensionMismatch", "EmptyRegion", "FormatError", "InsufficientPool",
               "MissingRelation", "NoSamples", "NotInvertible", "ParseError",
               "SpatialBenchError", "UnknownKind"],
    "evaluation": ["BenchReport", "ClauseVerdict", "EvalRecord", "evaluate_records",
                   "score_clause", "score_record"],
    "extraction": ["DEFAULT_CONFIG", "DetectedObject", "ExtractionConfig",
                   "RelationInstance", "Scene", "extract_scene"],
    "geometry": ["BoundingBox", "DepthMap", "average_depth", "check_between",
                 "check_depth_overlap", "check_depth_relation", "check_directional",
                 "check_next"],
    "relations": ["RelationKind", "Strictness", "invert"],
    "lexicon": ["default_contexts", "default_objects"],
    "prompts": ["PromptSpec", "RelationQuadruple", "parse_prompt", "render_prompt",
                "sample_prompt_set"],
    "captions": ["ObjectLexicon", "filter_captions", "load_captions", "write_jsonl"],
    "sceneio": ["load_eval_records", "load_scenes", "read_depth", "write_depth_pgm"],
    "stub": ["StubGeneratorConfig", "StubPlan", "stub_generate"],
    "tore": ["BiasProfile", "ToreConfig", "builtin_profile", "compute_bias_profile",
             "load_bias_profile", "transform_prompt", "transform_spec"],
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("argv, first_line", [
    (["scripts/tau_sweep.py", "--scenes", "5"], "5 scenes, 5 objects each, 128x128"),
    (["scripts/tore_lift_demo.py", "--count", "200"],
     "simulated generator: p(top)=0.8, p(bottom)=0.4"),
])
def test_demo_script_runs(argv, first_line):
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == first_line


def test_exports_resolve_to_their_home_module():
    assert sorted(spatialbench.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    assert len(spatialbench.__all__) == 58
    listed = dir(spatialbench)
    star: dict = {}
    exec("from spatialbench import *", star)
    for home, names in EXPORTED.items():
        module = importlib.import_module(f"spatialbench.{home}")
        for name in names:
            assert getattr(spatialbench, name) is getattr(module, name), name
            assert name in listed, name
            assert star[name] is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spatialbench.no_such_name  # noqa: B018
    assert not hasattr(spatialbench, "no_such_name")


def _run_python(code: str, tmp_path) -> subprocess.CompletedProcess:
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result


# Runs the CLI as `python -m spatialbench.cli` does, then reports the exit
# code and whether numpy was imported.
_RUN_CLI = """
import runpy, sys
sys.argv = ["spatialbench"] + {argv!r}
try:
    runpy.run_module("spatialbench.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print("RESULT", code, "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["gen-prompts", "--simple", "right=3", "--complex", "top=2", "--invert"],
    ["tore", "--profile", "profile.json", "prompts.txt"],
    ["tore", "--profile", "sdxl", "--pairs", "top_bottom", "prompts.txt"],
    ["filter-captions", "captions.jsonl"],
], ids=["help", "gen-prompts", "tore-file", "tore-sdxl", "filter-captions"])
def test_prompt_commands_start_without_numpy(tmp_path, argv):
    (tmp_path / "prompts.txt").write_text(
        "A bus to the right of a car in a city\n"
        "A lamp below a bench in a park\n"
        "not a benchmark prompt\n"
    )
    (tmp_path / "profile.json").write_text('{"left_right": {"left": 0.9, "right": 0.1}}')
    (tmp_path / "captions.jsonl").write_text('{"caption": "a red bus on a street downtown"}\n')
    result = _run_python(_RUN_CLI.format(argv=argv), tmp_path)
    assert result.stderr.splitlines()[-1] == "RESULT 0 False"
    assert result.stdout


def test_importing_cli_registers_every_module_without_numpy(tmp_path):
    result = _run_python(
        "import sys, spatialbench.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('spatialbench')))\n"
        "print('numpy' in sys.modules)\n",
        tmp_path,
    )
    registered, numpy_loaded = result.stdout.splitlines()
    assert registered == repr(sorted(MODULES))
    assert numpy_loaded == "False"
