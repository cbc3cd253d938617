"""Synthetic scene generator standing in for a text-to-image model.

Given prompts, it fabricates detection scenes whose geometry satisfies each
clause with a configured per-kind probability, so the whole evaluation
pipeline (and the opposite-side rewrite's effect on scores) can be exercised
at desk scale with no model in the loop.

Each clause gets its own zone along the image diagonal, far enough from the
others that no cross-zone object pair can pass any predicate; within a zone,
exact alignment templates realize the clause and a diagonal offset defeats
every predicate at once. Clause verdicts are therefore independent, except
when two clauses of one prompt reuse both phrases: every verdict is
re-checked after synthesis, and the returned plan records what the scorer
actually says, not what was drawn.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import SpatialBenchError
from .evaluation import EvalRecord, score_clause
from .extraction import DetectedObject, Scene
from .geometry import BoundingBox, DepthMap
from .prompts import PromptSpec, RelationQuadruple, render_prompt
from .relations import RelationKind, Strictness
from .textutil import as_float

__all__ = ["StubGeneratorConfig", "StubPlan", "stub_generate"]

# The largest scene. A plane's closeness runs 0 .. width - 1, so a side of at
# most 65535 keeps it writable as 16-bit PGM; 2**24 cells are 128 MiB of int64.
MAX_SIDE = 65535
MAX_CELLS = 2 ** 24


@dataclass(frozen=True)
class StubGeneratorConfig:
    """Per-kind satisfaction probabilities plus scene dimensions and seed."""

    probabilities: Mapping[RelationKind, float] = field(default_factory=dict)
    seed: int = 0
    width: int = 128
    height: int = 128
    tau: float = 3.0

    def __post_init__(self):
        coerced = {}
        for kind, p in dict(self.probabilities).items():
            if isinstance(kind, str):
                kind = RelationKind(kind)
            # each message starts with the name the CLI gives its flag: p, tau, width, height
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p {kind.value}={p}: probability must be in [0, 1]")
            coerced[kind] = float(p)
        object.__setattr__(self, "probabilities", coerced)
        if not 1.0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and >= 1, got {self.tau}")
        for name, size in (("width", self.width), ("height", self.height)):
            if size < 1:
                raise ValueError(f"{name} must be at least 1, got {size}")
            if size > MAX_SIDE:  # as a float, a side of 400 digits reads inf
                raise ValueError(f"{name} must be at most {MAX_SIDE}, got {as_float(size):g}")
        if self.width * self.height > MAX_CELLS:
            raise ValueError(f"height must be at most {MAX_CELLS // self.width} for width "
                             f"{self.width} (at most {MAX_CELLS} cells), got {self.height}")

    def probability(self, kind: RelationKind) -> float:
        """Satisfaction probability for a kind; unlisted kinds always satisfy."""
        return self.probabilities.get(kind, 1.0)


@dataclass(frozen=True)
class StubPlan:
    """Post-synthesis clause verdicts for one generated record."""

    record_id: str
    verdicts: tuple[bool, ...]


def stub_generate(
    prompts: Iterable[PromptSpec], cfg: StubGeneratorConfig | None = None
) -> tuple[list[EvalRecord], list[StubPlan]]:
    """Fabricate one scene per prompt; returns records plus verified plans."""
    cfg = cfg or StubGeneratorConfig()
    rng = random.Random(cfg.seed)
    strictness = Strictness(cfg.tau)
    plane = None  # the one depth map of every 3D scene, read-only and so shared
    records, plans = [], []
    for index, spec in enumerate(prompts):
        intents = tuple(rng.random() < cfg.probability(c.kind) for c in spec.clauses)
        record_id = f"stub-{index:06d}"
        depth = None
        if any(c.kind.is_3d for c in spec.clauses):
            # closeness rises to the right, so an x-shift of g decides front/behind
            if plane is None:
                plane = DepthMap(array("q", range(cfg.width)) * cfg.height,
                                 shape=(cfg.height, cfg.width))
            depth = plane
        scene = _synthesize(record_id, spec, intents, cfg, depth)
        verdicts = tuple(score_clause(clause, scene, strictness).satisfied
                         for clause in spec.clauses)
        records.append(EvalRecord(record_id, spec, scene))
        plans.append(StubPlan(record_id, verdicts))
    return records, plans


def _synthesize(
    record_id: str,
    spec: PromptSpec,
    intents: tuple[bool, ...],
    cfg: StubGeneratorConfig,
    depth: DepthMap | None,
) -> Scene:
    zone = min(cfg.width, cfg.height) // (2 * len(spec.clauses))
    s = zone // 6
    g = max(1, s // 8)
    # the front/behind overlap gate needs g < s/tau, and the diagonal
    # violation offset needs 2s outside the s/tau alignment band
    if not g < s / cfg.tau:
        raise SpatialBenchError(
            f"scene {cfg.width}x{cfg.height} (--width/--height) is too small for tau "
            f"{cfg.tau} with {len(spec.clauses)} clause(s) (record {record_id}, "
            f"prompt {render_prompt(spec)!r})"
        )
    objects: list[DetectedObject] = []
    for k, (clause, want) in enumerate(zip(spec.clauses, intents)):
        origin = k * 2 * zone
        objects.extend(_place_clause(clause, want, origin, s, g))
    return Scene(record_id, cfg.width, cfg.height, tuple(objects),
                 depth=depth, context=spec.context)


# Offsets of (subject, object) boxes inside a zone, as (x, y) of the top-left
# corner in units described by box size s and gap g. Satisfy templates align
# the cross axis exactly; the shared violate template offsets the subject
# diagonally by 2s, which breaks the alignment band of every 2D kind and the
# overlap gate of the 3D kinds in one stroke.

def _pairwise_offsets(kind: RelationKind, want: bool, s: int, g: int):
    if not want:
        return (2 * s, 2 * s), (0, 0)
    if kind in (RelationKind.RIGHT, RelationKind.NEXT):
        return (s + g, 0), (0, 0)
    if kind is RelationKind.LEFT:
        return (0, 0), (s + g, 0)
    if kind is RelationKind.BOTTOM:
        return (0, s + g), (0, 0)
    if kind is RelationKind.TOP:
        return (0, 0), (0, s + g)
    if kind is RelationKind.FRONT:
        return (g, 0), (0, 0)
    if kind is RelationKind.BEHIND:
        return (0, 0), (g, 0)
    raise AssertionError(kind)


def _place_clause(
    clause: RelationQuadruple, want: bool, origin: int, s: int, g: int
) -> list[DetectedObject]:
    def box(x: int, y: int) -> BoundingBox:
        return BoundingBox(origin + x, origin + y, origin + x + s, origin + y + s)

    if clause.kind is RelationKind.BETWEEN:
        if want:
            positions = [(s + g, 0), (0, 0), (2 * (s + g), 0)]
        else:
            # staircase: every pair of the triple is diagonal, so no
            # assignment is between and no side pair aligns either
            positions = [(s + g, 2 * s), (0, 0), (2 * (s + g), 4 * s)]
        labels = (clause.subject, clause.objects[0], clause.objects[1])
        return [DetectedObject(lab, box(x, y)) for lab, (x, y) in zip(labels, positions)]
    (sx, sy), (ox, oy) = _pairwise_offsets(clause.kind, want, s, g)
    return [
        DetectedObject(clause.subject, box(sx, sy)),
        DetectedObject(clause.objects[0], box(ox, oy)),
    ]
