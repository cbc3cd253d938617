"""Correctness checks on one chain's outputs.

Each check reads files only and returns a list of problems, empty when the
outputs are right. They run outside the timed region. A problem marks the
command that wrote the bad output as failed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from workloads import ChainFiles, read_pgm16

# Rendered prompts always use the canonical phrase of each kind.
_CANONICAL = {
    ("to", "the", "right", "of"): "right",
    ("to", "the", "left", "of"): "left",
    ("on", "top", "of"): "top",
    ("under",): "bottom",
    ("next", "to"): "next",
    ("between",): "between",
    ("in", "front", "of"): "front",
    ("behind",): "behind",
}
_LONGEST = max(len(p) for p in _CANONICAL)


def clause_kinds(prompt: str) -> list[str]:
    """Relation kind of each clause of a rendered prompt, in clause order."""
    tokens = prompt.lower().split()
    # the context follows the last "in a|an"
    marker = max(i for i in range(len(tokens) - 1)
                 if tokens[i] == "in" and tokens[i + 1] in ("a", "an"))
    body = " ".join(tokens[:marker])
    kinds = []
    for clause in body.split(","):
        words = clause.split()
        found = None
        for start in range(len(words)):
            for n in range(min(_LONGEST, len(words) - start), 0, -1):
                found = _CANONICAL.get(tuple(words[start:start + n]))
                if found:
                    break
            if found:
                break
        if found is None:
            raise ValueError(f"no canonical relation phrase in {clause!r}")
        kinds.append(found)
    return kinds


def check_evaluate(files: ChainFiles) -> list[str]:
    """Report counts and accuracies equal those recomputed from the stub plans."""
    prompts = [line for line in files.prompts.read_text(encoding="utf-8").splitlines()
               if line.strip()]
    plans = [json.loads(line) for line in files.plans.read_text(encoding="utf-8").splitlines()]
    if len(plans) != len(prompts):
        return [f"{len(plans)} plans for {len(prompts)} prompts"]
    counts: dict[str, int] = {}
    hits: dict[str, int] = {}
    full = 0
    for prompt, plan in zip(prompts, plans):
        kinds = clause_kinds(prompt)
        verdicts = plan["verdicts"]
        if len(kinds) != len(verdicts):
            return [f"plan {plan['id']} has {len(verdicts)} verdicts for {len(kinds)} clauses"]
        full += all(verdicts)
        for kind, ok in zip(kinds, verdicts):
            counts[kind] = counts.get(kind, 0) + 1
            hits[kind] = hits.get(kind, 0) + bool(ok)
    report = json.loads(files.report.read_text(encoding="utf-8"))
    problems = []
    if report["sample_counts"] != counts:
        problems.append(f"sample_counts {report['sample_counts']} != plans {counts}")
    soft = {kind: hits[kind] / counts[kind] for kind in counts}
    if report["soft_accuracy"] != soft:
        problems.append(f"soft_accuracy {report['soft_accuracy']} != plans {soft}")
    if report["strict_accuracy"] != full / len(plans):
        problems.append(f"strict_accuracy {report['strict_accuracy']} != plans {full / len(plans)}")
    return problems


def check_bias(files: ChainFiles) -> list[str]:
    """bias-report prints the report's bias block, and the profile matches it."""
    bias = json.loads(files.bias.read_text(encoding="utf-8"))
    report = json.loads(files.report.read_text(encoding="utf-8"))
    problems = []
    if bias != report["bias"]:
        problems.append("bias-report output differs from the report's bias block")
    if not bias:
        problems.append("bias block is empty")
    profile = json.loads(files.profile.read_text(encoding="utf-8"))
    if profile != bias:
        problems.append("emitted profile differs from the bias block")
    return problems


def check_tore(files: ChainFiles, unparseable_at: list[int]) -> list[str]:
    """Line count kept, unparseable lines byte-identical, rerun is a no-op.

    The rerun output (tore applied to its own output with the same profile)
    must already be in files.tore_again.
    """
    src = files.tore_in.read_bytes().split(b"\n")
    out = files.tore_out.read_bytes().split(b"\n")
    problems = []
    if len(out) != len(src):
        return [f"tore wrote {len(out) - 1} lines for {len(src) - 1}"]
    changed = [i for i in unparseable_at if out[i] != src[i]]
    if changed:
        problems.append(f"{len(changed)} unparseable lines changed, first at line {changed[0] + 1}")
    if files.tore_again.read_bytes() != files.tore_out.read_bytes():
        problems.append("tore is not idempotent: a second pass changed its output")
    return problems


def _load_naive(root: Path):
    path = root / "tests" / "naive_reference.py"
    spec = importlib.util.spec_from_file_location("bench_naive_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_extract(files: ChainFiles, root: Path, sample: list[int]) -> list[str]:
    """Relations of the sampled scenes equal naive_extract's, as sets without duplicates."""
    naive = _load_naive(root)
    scenes = [json.loads(line) for line in files.scenes.read_text(encoding="utf-8").splitlines()]
    outputs = [json.loads(line) for line in files.relations.read_text(encoding="utf-8").splitlines()]
    if len(outputs) != len(scenes):
        return [f"extract wrote {len(outputs)} lines for {len(scenes)} scenes"]
    problems = []
    for index in sample:
        scene, out = scenes[index], outputs[index]
        rows = None
        if "depth" in scene:
            rows = read_pgm16(files.scenes.parent / scene["depth"]).tolist()
        expected = naive.naive_extract({
            "width": scene["width"],
            "height": scene["height"],
            "objects": [(tuple(o["box"]), o["score"]) for o in scene["objects"]],
            "depth": rows,
        })
        got = [(r["kind"], r["subject"], tuple(r["objects"])) for r in out["relations"]]
        if out["image_id"] != scene["image_id"]:
            problems.append(f"line {index + 1}: image_id {out['image_id']!r} != {scene['image_id']!r}")
        elif len(got) != len(set(got)) or set(got) != expected:
            problems.append(
                f"scene {scene['image_id']}: {len(set(got) - expected)} extra and "
                f"{len(expected - set(got))} missing relations versus naive_extract"
            )
    return problems


def digest(paths) -> str:
    """SHA-256 over the given files' bytes, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()
