"""Relation extraction: labeled detections in, unambiguous relation facts out.

A Scene is a set of scored, labeled boxes (plus optional depth). Extraction
filters out weak or tiny detections, applies a proximity gate to pairs, and
runs the geometry predicates under one rule: a pair that hits a horizontal
and a vertical direction at once emits no directional relation, and every
horizontal hit emits Next. Output lists come out in one canonical order
(subject, objects, kind), so identical inputs give identical outputs.

geometry's per-pair kernel, the same formula scoring reads, runs once per
ordered eligible pair of a scene, into one table that both extractors read.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import DimensionMismatch
from .geometry import _DIRECTIONS, BoundingBox, DepthMap, _verdicts, average_depth
from .relations import RelationKind, Strictness
from .textutil import normalize_phrase

__all__ = [
    "DetectedObject",
    "Scene",
    "RelationInstance",
    "ExtractionConfig",
    "extract_pairwise",
    "extract_between",
    "extract_scene",
]


@dataclass(frozen=True)
class DetectedObject:
    """One detection: normalized label, box, confidence."""

    label: str
    box: BoundingBox
    score: float = 1.0

    def __post_init__(self):
        normalized = normalize_phrase(self.label)
        if not normalized:
            raise ValueError("detected object needs a non-empty label")
        object.__setattr__(self, "label", normalized)
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class Scene:
    """Detections for one image, optionally with depth and an urban context.

    Extraction keeps its pair table on the instance, outside the fields, so
    equality, hashing and repr never see it.
    """

    image_id: str
    width: float
    height: float
    objects: tuple[DetectedObject, ...] = ()
    depth: DepthMap | None = None
    context: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"width must be positive, got {self.width}")
        if not (math.isfinite(self.height) and self.height > 0):
            raise ValueError(f"height must be positive, got {self.height}")
        object.__setattr__(self, "objects", tuple(self.objects))
        for idx, obj in enumerate(self.objects):
            b = obj.box
            if b.x_max > self.width or b.y_max > self.height:
                raise ValueError(
                    f"object {idx} box {b.as_tuple()} exceeds scene bounds "
                    f"{self.width}x{self.height}; clip boxes before construction"
                )
        if self.depth is not None:
            if self.depth.width != self.width or self.depth.height != self.height:
                raise DimensionMismatch(
                    f"depth map is {self.depth.width}x{self.depth.height}, "
                    f"scene is {self.width}x{self.height}"
                )
        if self.context is not None:
            object.__setattr__(self, "context", normalize_phrase(self.context))


@dataclass(frozen=True)
class RelationInstance:
    """A grounded relation fact over scene object indices.

    objects holds one index for pairwise kinds; for Between it holds the two
    flanking indices (left, right) and subject is the middle object. The
    context is the scene's, held there once.
    """

    kind: RelationKind
    subject: int
    objects: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        expected = 2 if self.kind is RelationKind.BETWEEN else 1
        if len(self.objects) != expected:
            raise ValueError(
                f"{self.kind.value} relation needs {expected} object index(es), "
                f"got {self.objects}"
            )
        indices = (self.subject, *self.objects)
        if any(i < 0 for i in indices):
            raise ValueError(f"object indices must be >= 0, got {indices}")
        if len(set(indices)) != len(indices):
            raise ValueError(f"relation indices must be distinct, got {indices}")


@dataclass(frozen=True)
class ExtractionConfig:
    """Extraction thresholds; defaults are the package-wide conventions.

    min_rel_area is a fraction of image area, max_center_dist a fraction of the
    image diagonal. Detections below min_score or min_rel_area never enter any
    predicate.
    """

    tau: float = 3.0
    min_rel_area: float = 0.01
    max_center_dist: float = 0.5
    min_score: float = 0.3

    def __post_init__(self):
        Strictness(self.tau)  # tau's rule and message are the strictness divisor's
        if not (0 < self.min_rel_area <= 1):
            raise ValueError(f"min_rel_area must be in (0, 1], got {self.min_rel_area}")
        if not (0 < self.max_center_dist <= 1):
            raise ValueError(f"max_center_dist must be in (0, 1], got {self.max_center_dist}")
        if not (0 <= self.min_score <= 1):
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score}")


DEFAULT_CONFIG = ExtractionConfig()


def _eligible(scene: Scene, cfg: ExtractionConfig) -> list[int]:
    min_area = cfg.min_rel_area * scene.width * scene.height
    return [
        i
        for i, obj in enumerate(scene.objects)
        if obj.score >= cfg.min_score and obj.box.area >= min_area
    ]


def _pair_table(scene: Scene, cfg: ExtractionConfig) -> tuple[list[int], list[list]]:
    """The eligible indices and the kernel's verdicts for every ordered eligible pair.

    rows[a][b] is _verdicts of eligible object a against b, None on the
    diagonal. The scene keeps the table of the last config it was built for,
    out of its fields as functools.cached_property would, so both extractors
    read one table and no scene reads another's.
    """
    kept = scene.__dict__.get("_pair_table")
    if kept is not None and kept[0] == cfg:
        return kept[1]
    eligible = _eligible(scene, cfg)
    corners = [scene.objects[i].box.as_tuple() for i in eligible]
    tau = cfg.tau
    rows = [[None if a == b else _verdicts(p, q, tau) for b, q in enumerate(corners)]
            for a, p in enumerate(corners)]
    scene.__dict__["_pair_table"] = cfg, (eligible, rows)
    return eligible, rows


def _relation(kind: RelationKind, subject: int, objects: tuple[int, ...]) -> RelationInstance:
    """A RelationInstance from parts that already pass its checks.

    The indices must be distinct and >= 0, with one object, or two for
    Between; nothing is checked again.
    """
    rel = object.__new__(RelationInstance)
    rel.__dict__.update(kind=kind, subject=subject, objects=objects)
    return rel


def _pair_kinds(right: bool, left: bool, top: bool, bottom: bool) -> tuple[RelationKind, ...]:
    """The 2D kinds a pair with these verdicts emits, in canonical order."""
    next_to = right or left
    kinds = []
    if not (next_to and (top or bottom)):  # not ambiguous
        kinds = [kind for kind, hit in zip(_DIRECTIONS, (right, left, top, bottom)) if hit]
    if next_to:
        kinds.append(RelationKind.NEXT)
    return tuple(kinds)


# the 2D kinds of every verdict pattern (RIGHT, LEFT, TOP, BOTTOM)
_KINDS = {hits: _pair_kinds(*hits) for hits in itertools.product((False, True), repeat=4)}


def extract_pairwise(scene: Scene, cfg: ExtractionConfig = DEFAULT_CONFIG) -> list[RelationInstance]:
    """All pairwise relations (directional, Next, Front/Behind) in the scene.

    Every ordered eligible pair whose box centers lie within max_center_dist
    of the image diagonal is checked. A pair that hits both a horizontal and
    a vertical direction is ambiguous and emits no directional relation at
    all; Next (either horizontal hit) and the depth relations are emitted
    regardless. The list comes out in canonical order.
    """
    eligible, rows = _pair_table(scene, cfg)
    boxes = [scene.objects[i].box for i in eligible]
    centers = [b.center for b in boxes]
    limit = cfg.max_center_dist * math.hypot(scene.width, scene.height)
    depth = scene.depth
    means: dict[int, float] = {}
    out: list[RelationInstance] = []
    for a, subject in enumerate(eligible):
        row, center = rows[a], centers[a]
        for b, obj in enumerate(eligible):
            if a == b or not math.dist(center, centers[b]) <= limit:
                continue
            right, left, top, bottom, overlap = row[b]
            kinds = _KINDS[right, left, top, bottom]
            if overlap and depth is not None:
                # one mean per object that a gated pair compares; the comparisons
                # are exact, so a tie decides neither side
                for i in (a, b):
                    if i not in means:
                        means[i] = average_depth(depth, boxes[i])
                if means[a] > means[b]:
                    kinds += (RelationKind.FRONT,)
                elif means[a] < means[b]:
                    kinds += (RelationKind.BEHIND,)
            objects = (obj,)
            out.extend(_relation(kind, subject, objects) for kind in kinds)
    return out


def extract_between(scene: Scene, cfg: ExtractionConfig = DEFAULT_CONFIG) -> list[RelationInstance]:
    """All Between relations over ordered triplets of eligible objects.

    The middle object m sits between a and c when a is left of m and c right
    of it. Each ordered pair is checked once, with no proximity gate, so the
    cost is O(n^2) plus the output. The list comes out in canonical order.
    """
    eligible, rows = _pair_table(scene, cfg)
    out: list[RelationInstance] = []
    for m, mid in enumerate(eligible):
        lefts, rights = [], []
        for a, flank in enumerate(eligible):
            if a != m:
                right, left, _, _, _ = rows[a][m]
                if left:
                    lefts.append(flank)
                if right:
                    rights.append(flank)
        out.extend(_relation(RelationKind.BETWEEN, mid, (a, c))
                   for a in lefts for c in rights if a != c)
    return out


def extract_scene(scene: Scene, cfg: ExtractionConfig = DEFAULT_CONFIG) -> list[RelationInstance]:
    """Pairwise and Between relations merged into one canonical ordering.

    Both lists are in canonical order already, and a pairwise fact (one
    object) never ties a Between fact (two) on subject and objects, so a
    stable sort on those two alone merges them.
    """
    out = extract_pairwise(scene, cfg) + extract_between(scene, cfg)
    out.sort(key=operator.attrgetter("subject", "objects"))
    return out
