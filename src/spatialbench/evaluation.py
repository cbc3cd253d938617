"""Benchmark scoring of prompts against detected scenes.

A clause is satisfied when ANY pair (or triple, for between) of detected
instances whose labels match the clause's noun phrases passes the geometry
predicate at the given strictness. Duplicate detections are therefore
harmless: one passing assignment suffices. Clause scoring ignores the
extractor's proximity, score and area filters on purpose; the prompt already
commits to the objects, so only the spatial constraint is under test. Tau
is thus the one setting scoring reads, and the one the report records.

evaluate_records is the one aggregator: it scores each record once, and the
report's soft and strict accuracies and its opposite-pair bias table are all
read off the clause and hit counts of that pass.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import NoSamples
from .extraction import Scene
from .geometry import check_between, check_depth_relation, check_directional, check_next
from .prompts import PromptSpec, RelationQuadruple
from .relations import DEFAULT_STRICTNESS, OPPOSITE_PAIRS, RelationKind, Strictness, pair_id

__all__ = [
    "EvalRecord",
    "ClauseVerdict",
    "BenchReport",
    "score_clause",
    "score_record",
    "evaluate_records",
]


@dataclass(frozen=True)
class EvalRecord:
    """One generated image: the prompt it came from plus its detections."""

    record_id: str
    prompt: PromptSpec
    scene: Scene


@dataclass(frozen=True)
class ClauseVerdict:
    clause_index: int
    satisfied: bool
    witness: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.satisfied != (self.witness is not None):
            raise ValueError("witness must be present exactly when satisfied")


def _instances(scene: Scene, label: str) -> list[int]:
    return [i for i, obj in enumerate(scene.objects) if obj.label == label]


def score_clause(
    clause: RelationQuadruple,
    scene: Scene,
    s: Strictness = DEFAULT_STRICTNESS,
    *,
    clause_index: int = 0,
) -> ClauseVerdict:
    """Satisfaction verdict for one clause against one scene.

    The witness is the first passing index tuple in ascending scan order:
    (subject, object) for pairwise kinds, (middle, flanker1, flanker2) for
    between. Between accepts either flank order: the prompt names the two
    flankers, not which one is on the left. Missing labels, or a missing
    depth map for a 3D clause, simply yield an unsatisfied verdict.
    """
    boxes = [obj.box for obj in scene.objects]
    subjects = _instances(scene, clause.subject)
    kind = clause.kind

    if kind is RelationKind.BETWEEN:
        first = _instances(scene, clause.objects[0])
        second = _instances(scene, clause.objects[1])
        for m in subjects:
            for i in first:
                if i == m:
                    continue
                for j in second:
                    if j == m or j == i:
                        continue
                    if (check_between(boxes[i], boxes[m], boxes[j], s)
                            or check_between(boxes[j], boxes[m], boxes[i], s)):
                        return ClauseVerdict(clause_index, True, (m, i, j))
        return ClauseVerdict(clause_index, False)

    objects = _instances(scene, clause.objects[0])
    for i in subjects:
        for j in objects:
            if i == j:
                continue
            if kind.is_directional_2d:
                ok = check_directional(boxes[i], boxes[j], kind, s)
            elif kind is RelationKind.NEXT:
                ok = check_next(boxes[i], boxes[j], s)
            else:
                if scene.depth is None:
                    return ClauseVerdict(clause_index, False)
                ok = check_depth_relation(boxes[i], boxes[j], scene.depth, s) is kind
            if ok:
                return ClauseVerdict(clause_index, True, (i, j))
    return ClauseVerdict(clause_index, False)


def score_record(record: EvalRecord, s: Strictness = DEFAULT_STRICTNESS) -> list[ClauseVerdict]:
    return [
        score_clause(clause, record.scene, s, clause_index=i)
        for i, clause in enumerate(record.prompt.clauses)
    ]


@dataclass(frozen=True)
class BenchReport:
    """Aggregated benchmark numbers plus the configuration that produced them."""

    soft: dict[str, float]
    strict: float
    counts: dict[str, int]
    bias: dict[str, dict[str, float]]
    config: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in {**self.soft, "strict": self.strict}.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"accuracy {name}={value} outside [0, 1]")

    def to_json(self) -> str:
        payload = {
            "soft_accuracy": self.soft,
            "strict_accuracy": self.strict,
            "sample_counts": self.counts,
            "bias": self.bias,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        raw = json.loads(text)
        return cls(
            soft=dict(raw["soft_accuracy"]),
            strict=float(raw["strict_accuracy"]),
            counts=dict(raw["sample_counts"]),
            bias={k: dict(v) for k, v in raw.get("bias", {}).items()},
            config=dict(raw.get("config", {})),
        )

    def to_text(self) -> str:
        lines = [f"{'relation':<12}{'samples':>8}{'soft':>8}"]
        for kind in RelationKind:
            if kind.value in self.soft:
                lines.append(
                    f"{kind.value:<12}{self.counts.get(kind.value, 0):>8}"
                    f"{self.soft[kind.value]:>8.3f}"
                )
        lines.append("")
        lines.append(f"strict accuracy: {self.strict:.3f}")
        text = "\n".join(lines) + "\n"
        return text + "\n" + self.bias_text() if self.bias else text

    def bias_text(self) -> str:
        """The bias table as text, one row per side, pairs in OPPOSITE_PAIRS order."""
        lines = [f"{'pair':<14}{'side':<10}{'accuracy':>8}"]
        for pair in OPPOSITE_PAIRS:
            pid = pair_id(pair)
            if pid in self.bias:
                for kind in pair:
                    lines.append(f"{pid:<14}{kind.value:<10}{self.bias[pid][kind.value]:>8.3f}")
        return "\n".join(lines) + "\n"


def evaluate_records(
    records: Iterable[EvalRecord],
    s: Strictness = DEFAULT_STRICTNESS,
    *,
    seed: int | None = None,
) -> BenchReport:
    """Score every record once and aggregate the report.

    records may be any iterable, a generator included; it is read once, one
    record at a time.

    Clauses and hits are counted per (kind, simple/complex subset). Soft
    accuracy is a kind's hits over its clauses, other clauses ignored; strict
    accuracy is the fraction of records whose every clause is satisfied. The
    bias table gives, per opposite pair, each side's accuracy averaged over
    the simple and complex subsets (equal weight; a missing subset falls back
    to the other). Pairs with clauses on only one side, or neither, are
    omitted, so the table is empty when no pair is covered. NoSamples for
    zero records.
    """
    total = full = 0
    clauses: Counter = Counter()
    hits: Counter = Counter()
    for record in records:
        total += 1
        verdicts = score_record(record, s)
        full += all(v.satisfied for v in verdicts)
        for clause, verdict in zip(record.prompt.clauses, verdicts):
            key = (clause.kind, record.prompt.is_complex)
            clauses[key] += 1
            hits[key] += verdict.satisfied

    if not total:
        raise NoSamples("no records")
    soft: dict[str, float] = {}
    counts: dict[str, int] = {}
    for kind in dict.fromkeys(kind for kind, _ in clauses):  # first-seen order
        counts[kind.value] = clauses[kind, False] + clauses[kind, True]
        soft[kind.value] = (hits[kind, False] + hits[kind, True]) / counts[kind.value]
    bias: dict[str, dict[str, float]] = {}
    for pair in OPPOSITE_PAIRS:
        sides: dict[str, float] = {}
        for kind in pair:
            values = [
                hits[kind, subset] / clauses[kind, subset]
                for subset in (False, True)
                if clauses[kind, subset]
            ]
            if values:
                sides[kind.value] = sum(values) / len(values)
        if len(sides) == 2:
            bias[pair_id(pair)] = sides
    config: dict[str, object] = {"tau": s.tau}
    if seed is not None:
        config["seed"] = seed
    return BenchReport(soft=soft, strict=full / total, counts=counts,
                       bias=bias, config=config)
