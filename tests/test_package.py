"""Package surface: every exported name resolves, and the demo scripts run.

Also how the package depends and starts: no module imports numpy and
pyproject.toml lists no runtime dependency, every command runs with numpy
refused, and importing spatialbench.cli registers every package module
(the benchmark's tracer rebinds functions across all of them).
"""

from __future__ import annotations

import ast
import importlib
import importlib.abc
import importlib.util
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import pytest

import spatialbench

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["spatialbench"] + [
    f"spatialbench.{m.name}" for m in pkgutil.iter_modules(spatialbench.__path__)
]

# The names the package exported when its __init__ imported them eagerly,
# and candidate_pool, exported since.
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
    "prompts": ["PromptSpec", "RelationQuadruple", "candidate_pool", "parse_prompt",
                "render_prompt", "sample_prompt_set"],
    "captions": ["ObjectLexicon", "filter_captions", "load_captions"],
    "sceneio": ["load_eval_records", "load_scenes", "read_depth", "write_depth_pgm"],
    "stub": ["StubGeneratorConfig", "StubPlan", "stub_generate"],
    "tore": ["BiasProfile", "ToreConfig", "builtin_profile", "compute_bias_profile",
             "load_bias_profile", "transform_prompt", "transform_spec"],
    "textutil": ["write_jsonl"],
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


@pytest.mark.parametrize("digest, bench, code, last_lines", [
    ("same", "same", 0, ["bench files: identical", "chain outputs: identical"]),
    ("other", "same", 1, ["bench files: identical", "chain outputs: differ in records.jsonl"]),
    ("same", "other", 1, ["bench files: differ in bench/run.py", "chain outputs: identical"]),
], ids=["identical", "differ", "bench-differs"])
def test_ab_bench_exit_code_follows_the_digests(tmp_path, monkeypatch, capsys,
                                               digest, bench, code, last_lines):
    roots = []
    ab_bench = _stub_ab_bench(tmp_path, monkeypatch, [{"name": "evaluate_s", "better": "lower"}],
                              bench, lambda root: roots.append(root) or (
        {"evaluate_s": 1.0},
        {"records.jsonl": digest if root.name == "new" else "same", "report.json": "r"},
    ))
    assert ab_bench.main(["HEAD", "--workload", "eval_loop", "--pairs", "2"]) == code
    assert capsys.readouterr().out.splitlines()[-2:] == last_lines
    # both sides run from sibling copies under .bench_work/, never from the tree itself
    assert {root.name for root in roots} == {"old", "new"}
    assert {root.parent.parent for root in roots} == {tmp_path / ".bench_work"}


def test_ab_bench_marks_a_median_ratio_over_its_bound(tmp_path, monkeypatch, capsys):
    end_to_end = [{"name": "evaluate_s", "better": "lower", "bound": 0.25},
                  {"name": "tore_s", "better": "lower", "bound": 0.25},
                  {"name": "items_per_s", "better": "higher", "bound": 0.25},
                  {"name": "rate", "better": "higher", "bound": 0.25},
                  {"name": "setup_s", "better": "lower"}]
    rev = {"evaluate_s": 1.0, "tore_s": 1.0, "items_per_s": 100.0, "rate": 100.0, "setup_s": 1.0}
    tree = {"evaluate_s": 1.3, "tore_s": 1.2, "items_per_s": 70.0, "rate": 80.0, "setup_s": 2.0}
    ab_bench = _stub_ab_bench(tmp_path, monkeypatch, end_to_end, "same", lambda root: (
        tree if root.name == "new" else rev, {"records.jsonl": "same"}))
    assert ab_bench.main(["HEAD", "--workload", "eval_loop", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:-2]
    assert [line.split(":")[0].strip() for line in lines] == list(rev)
    # worse than the bound: more than 25% slower, or under 75% of the rate; no bound, no mark
    assert [line.endswith(" over bound") for line in lines] == [True, False, True, False, False]
    assert lines[0].endswith("ratio 1.300 (0/2) over bound")


def _stub_ab_bench(tmp_path, monkeypatch, end_to_end, bench, run):
    """scripts/ab_bench.py with each side's bench run stood in for by run(root)."""
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
    ab_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_bench)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": end_to_end}))
    monkeypatch.setattr(ab_bench.subprocess, "run",
                        lambda *args, **kwargs: subprocess.CompletedProcess(args, 0, b""))

    def copy_bench(tree, dest):
        # each side's copy holds one benchmark file; the new side's text is bench's
        (dest / "bench").mkdir()
        (dest / "bench" / "run.py").write_text(bench)
        (dest.parent / "old" / "bench").mkdir()
        (dest.parent / "old" / "bench" / "run.py").write_text("same")

    monkeypatch.setattr(ab_bench, "copy_tree_files", copy_bench)
    monkeypatch.setattr(ab_bench, "bench_run", lambda root, args: run(root))
    return ab_bench


def test_bench_trace_points_resolve():
    # bench/tracing.py wraps these names; a refactor that drops one breaks the bench
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, *_ in (*tracing.SPANS, *tracing.COUNTERS):
        module = importlib.import_module(f"spatialbench.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            target = vars(getattr(module, cls_name)).get(method)
        else:
            target = vars(module).get(attr)
        assert inspect.isfunction(target), f"{module_name}.{attr}"
    sceneio = importlib.import_module("spatialbench.sceneio")
    prompts = importlib.import_module("spatialbench.prompts")
    assert sceneio.parse_prompt is prompts.parse_prompt


def test_exports_resolve_to_their_home_module():
    assert sorted(spatialbench.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    assert len(spatialbench.__all__) == 59
    listed = dir(spatialbench)
    star: dict = {}
    exec("from spatialbench import *", star)
    for home, names in EXPORTED.items():
        module = importlib.import_module(f"spatialbench.{home}")
        for name in names:
            assert getattr(spatialbench, name) is getattr(module, name), name
            assert name in listed, name
            assert star[name] is getattr(module, name), name


def test_json_is_decoded_only_in_textutil():
    # textutil maps every decode fault to one FormatError, and encodes every
    # output one way; a module that calls json.loads or json.dumps itself
    # would answer a fault with its own exceptions, or write its own bytes
    uses = []
    for path in sorted((ROOT / "src" / "spatialbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("load", "loads", "dump", "dumps")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                uses.append((path.name, node.lineno))
            elif (isinstance(node, ast.ImportFrom) and node.module == "json"
                  or isinstance(node, ast.Import) and "json" in [a.name for a in node.names]):
                uses.append((path.name, node.lineno))
    assert {name for name, _ in uses} == {"textutil.py"}, uses


def test_values_skip_their_checks_only_through_relations_unchecked():
    # relations._unchecked is the one builder of a frozen dataclass value that
    # does not run its checks; DepthMap._pending makes a plain class's map
    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from calls(child, (*scope, child.name))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__" and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "object"):
                yield ".".join(scope)
            yield from calls(child, scope)

    found = [where for path in sorted((ROOT / "src" / "spatialbench").glob("*.py"))
             for where in calls(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))]
    assert found == ["geometry.DepthMap._pending", "relations._unchecked"]


def test_no_module_imports_numpy():
    imports = []
    for path in sorted((ROOT / "src" / "spatialbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                imports.append((path.name, node.lineno))
    assert imports == []


def test_pyproject_lists_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert "\ndependencies = []\n" in text
    else:
        assert tomllib.loads(text)["project"]["dependencies"] == []


class _RefuseNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is refused")
        return None


@pytest.fixture
def fresh_imports(monkeypatch):
    """numpy and spatialbench unloaded; the test's own imports of them go at teardown."""

    def ours():
        return [m for m in sys.modules if m.partition(".")[0] in ("numpy", "spatialbench")]

    loaded = {name: sys.modules.pop(name) for name in ours()}
    yield
    for name in ours():
        del sys.modules[name]
    sys.modules.update(loaded)


def test_float_depth_runs_with_numpy_refused(tmp_path, monkeypatch, capsys, fresh_imports):
    # the package is imported afresh under a finder that refuses numpy
    monkeypatch.setattr(sys, "meta_path", [_RefuseNumpy(), *sys.meta_path])
    from spatialbench.cli import main

    plane = [[x + 0.5 for x in range(8)] for _ in range(8)]
    record = {"id": "r", "prompt": "A bus in front of a car in a city", "scene": {
        "image_id": "s", "width": 8, "height": 8, "depth": plane, "objects": [
            {"label": "bus", "box": [1, 1, 5, 5]}, {"label": "car", "box": [0, 1, 4, 5]}]}}
    (tmp_path / "r.jsonl").write_text(json.dumps(record) + "\n")
    assert main(["evaluate", str(tmp_path / "r.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out)["soft_accuracy"] == {"front": 1.0}
    assert not any(m.partition(".")[0] == "numpy" for m in sys.modules)


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


# Runs the CLI as `python -m spatialbench.cli` does, then names the package
# modules that ran (a registered lazy module that never ran is still of a
# ModuleType subclass), and reports the exit code and whether numpy was
# imported.
_RUN_CLI = """
import runpy, sys, types
sys.argv = ["spatialbench"] + {argv!r}
try:
    runpy.run_module("spatialbench.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print("RAN", *sorted(name.partition(".")[2] for name, module in sys.modules.items()
                     if name.startswith("spatialbench.") and type(module) is types.ModuleType),
      file=sys.stderr)
print("RESULT", code, "numpy" in sys.modules, file=sys.stderr)
"""


_SIDES_3D = (
    "A bus to the right of a car in a city\n"
    "A car to the left of a bus in a city\n"
    "A lamp on top of a bench in a park\n"
    "A lamp below a bench in a park\n"
    "A tree in front of a kiosk in a street\n"
    "A tree behind a kiosk in a street\n"
    "A bus in front of a car, the car behind a lamp in a city\n"
)


def _write_inputs(tmp_path: Path) -> None:
    """Prompt, profile and caption files, and stub records and scenes with inline and PGM depth."""
    from spatialbench.cli import main
    from spatialbench.geometry import DepthMap
    from spatialbench.sceneio import read_depth, write_depth_pgm

    (tmp_path / "prompts.txt").write_text(
        "A bus to the right of a car in a city\n"
        "A lamp below a bench in a park\n"
        "not a benchmark prompt\n"
    )
    (tmp_path / "sides.txt").write_text(_SIDES_3D)
    (tmp_path / "profile.json").write_text('{"left_right": {"left": 0.9, "right": 0.1}}')
    (tmp_path / "captions.jsonl").write_text('{"caption": "a red bus on a street downtown"}\n')
    records = tmp_path / "records.jsonl"
    assert main(["stub-gen", str(tmp_path / "sides.txt"), "--output", str(records),
                 "--p", "front=0.5", "--seed", "3"]) == 0
    lines = [json.loads(line) for line in records.read_text().splitlines()]
    for i, line in enumerate(lines):
        if isinstance(line["scene"].get("depth"), list):
            name = f"d{i}.pgm"
            write_depth_pgm(tmp_path / name, DepthMap(line["scene"]["depth"]))
            line["scene"]["depth"] = name
    # one 8-bit file among the 16-bit ones
    (tmp_path / "d8.pgm").write_bytes(b"P5\n128 128\n255\n" + bytes(range(128)) * 128)
    lines[-1]["scene"]["depth"] = "d8.pgm"
    (tmp_path / "records_pgm.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
    (tmp_path / "scenes_pgm.jsonl").write_text("".join(json.dumps(x["scene"]) + "\n" for x in lines))
    (tmp_path / "scenes.jsonl").write_text("".join(
        json.dumps(json.loads(line)["scene"]) + "\n" for line in records.read_text().splitlines()))
    assert read_depth(tmp_path / "d8.pgm").flat.format == "B"


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["gen-prompts", "--simple", "right=3", "--complex", "top=2", "--invert"],
    ["tore", "--profile", "profile.json", "prompts.txt"],
    ["tore", "--profile", "sdxl", "--pairs", "top_bottom", "prompts.txt"],
    ["filter-captions", "captions.jsonl"],
    ["stub-gen", "sides.txt", "--plans", "plans.jsonl"],
    ["evaluate", "records.jsonl"],
    ["evaluate", "records_pgm.jsonl", "--format", "text"],
    ["bias-report", "records.jsonl", "--emit-profile", "emitted.json"],
    ["bias-report", "records_pgm.jsonl"],
    ["extract", "scenes.jsonl"],
    ["extract", "scenes_pgm.jsonl", "--tau", "2"],
], ids=["help", "gen-prompts", "tore-file", "tore-sdxl", "filter-captions", "stub-gen",
        "evaluate-inline", "evaluate-pgm", "bias-report-inline", "bias-report-pgm",
        "extract-inline", "extract-pgm"])
def test_prompt_commands_start_without_numpy(tmp_path, argv):
    _write_inputs(tmp_path)
    result = _run_python(_RUN_CLI.format(argv=argv), tmp_path)
    assert result.stderr.splitlines()[-1] == "RESULT 0 False"
    assert result.stdout


_SCORING = {"evaluation", "extraction", "geometry", "sceneio", "stub"}


# captions, the caption filter, runs for filter-captions alone
@pytest.mark.parametrize("argv, never", [
    (["--help"], {"prompts", "lexicon", "tore"} | _SCORING),
    (["extract", "scenes_pgm.jsonl"], {"tore", "evaluation", "stub", "captions"}),
    (["extract", "scenes.jsonl", "--tau", "2"], {"tore", "evaluation", "stub", "captions"}),
    (["evaluate", "records_pgm.jsonl"], {"tore", "stub", "captions"}),
    (["bias-report", "records.jsonl", "--emit-profile", "emitted.json"], {"stub", "captions"}),
    (["stub-gen", "sides.txt", "--plans", "plans.jsonl"], {"tore", "captions"}),
    (["gen-prompts", "--simple", "right=3", "--complex", "top=2", "--invert"], _SCORING),
    (["tore", "--profile", "profile.json", "prompts.txt"], _SCORING),
    (["tore", "--profile", "sdxl", "prompts.txt"], _SCORING),
], ids=["help", "extract-pgm", "extract-inline", "evaluate", "bias-report", "stub-gen",
        "gen-prompts", "tore-file", "tore-sdxl"])
def test_commands_run_only_the_modules_they_read(tmp_path, argv, never):
    _write_inputs(tmp_path)
    result = _run_python(_RUN_CLI.format(argv=argv), tmp_path)
    *_, ran, outcome = result.stderr.splitlines()
    assert outcome.startswith("RESULT 0 ") and result.stdout
    ran = set(ran.split()[1:])
    assert "errors" in ran and not never & ran, ran


def test_depth_files_and_inline_depth_score_alike(tmp_path):
    _write_inputs(tmp_path)
    from spatialbench.cli import main

    # every PGM file, the 8-bit one too, holds the stub's ramp, so the reports agree
    reports = []
    for name in ("records.jsonl", "records_pgm.jsonl"):
        out = tmp_path / f"{name}.report"
        assert main(["evaluate", str(tmp_path / name), "--output", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


def test_extract_starts_without_numpy_and_matches_the_oracle(tmp_path):
    import naive_reference as ref
    from spatialbench.geometry import DepthMap
    from spatialbench.sceneio import write_depth_pgm

    rng = random.Random(4)
    scenes = []
    for i in range(6):
        objects = []
        for _ in range(rng.randint(2, 7)):
            # boxes on two bands line up sideways, and near-copies overlap in depth
            x, y = rng.randrange(0, 50), rng.choice([4, 24])
            box = [x, y, x + rng.randint(6, 14), y + rng.randint(10, 12)]
            if objects and rng.random() < 0.4:
                box = [c + 1 for c in objects[-1]["box"]]
            objects.append({"label": "car", "box": box, "score": rng.choice([0.2, 0.9, 0.9])})
        rows = [[rng.randrange(0, 300) for _ in range(64)] for _ in range(48)]
        depth = rows
        if i % 2:
            depth = f"s{i}.pgm"
            write_depth_pgm(tmp_path / depth, DepthMap(rows))
        scenes.append(({"image_id": f"s{i}", "width": 64, "height": 48, "objects": objects,
                        "depth": depth}, rows))
    (tmp_path / "scenes.jsonl").write_text("".join(json.dumps(s) + "\n" for s, _ in scenes))
    result = _run_python(_RUN_CLI.format(argv=["extract", "scenes.jsonl"]), tmp_path)
    assert result.stderr.splitlines()[-1] == "RESULT 0 False"
    outputs = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(outputs) == len(scenes)
    for (scene, rows), out in zip(scenes, outputs):
        want = ref.naive_extract({
            "width": 64, "height": 48, "depth": rows,
            "objects": [(tuple(o["box"]), o["score"]) for o in scene["objects"]],
        })
        got = [(r["kind"], r["subject"], tuple(r["objects"])) for r in out["relations"]]
        assert len(got) == len(set(got)) and set(got) == want
    kinds = {r["kind"] for out in outputs for r in out["relations"]}
    assert {"right", "left", "top", "next", "front", "behind"} <= kinds


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


def test_scoring_modules_import_without_numpy(tmp_path):
    result = _run_python(
        "import sys\n"
        "from spatialbench.extraction import DetectedObject, Scene\n"
        "from spatialbench.evaluation import EvalRecord\n"
        "from spatialbench import geometry, sceneio, stub\n"
        "print('numpy' in sys.modules)\n",
        tmp_path,
    )
    assert result.stdout == "False\n"
