"""Relation extraction: labeled detections in, unambiguous relation facts out.

A Scene is a set of scored, labeled boxes (plus optional depth). Extraction
filters out weak or tiny detections, applies a proximity gate to pairs, and
runs the geometry predicates under one rule: a pair that hits a horizontal
and a vertical direction at once emits no directional relation, and every
horizontal hit emits Next. Output lists are deterministically ordered so
identical inputs give identical outputs.

The extractors load numpy when first called; the Scene and DetectedObject
types load without it, so scoring code can import them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatch
from .geometry import (
    BoundingBox,
    DepthMap,
    average_depth,
    batch_check_depth_overlap,
    batch_check_directional,
)
from .relations import KIND_ORDER, RelationKind, Strictness
from .textutil import normalize_phrase

__all__ = [
    "DetectedObject",
    "Scene",
    "RelationInstance",
    "ExtractionConfig",
    "proximity_filter",
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
    """Detections for one image, optionally with depth and an urban context."""

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
    flanking indices (left, right) and subject is the middle object.
    """

    kind: RelationKind
    subject: int
    objects: tuple[int, ...]
    context: str | None = None

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

    def sort_key(self) -> tuple:
        return (self.subject, self.objects, KIND_ORDER[self.kind])


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
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if not (0 < self.min_rel_area <= 1):
            raise ValueError(f"min_rel_area must be in (0, 1], got {self.min_rel_area}")
        if not (0 < self.max_center_dist <= 1):
            raise ValueError(f"max_center_dist must be in (0, 1], got {self.max_center_dist}")
        if not (0 <= self.min_score <= 1):
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score}")

    @property
    def strictness(self) -> Strictness:
        return Strictness(self.tau)


DEFAULT_CONFIG = ExtractionConfig()


def proximity_filter(
    b1: BoundingBox,
    b2: BoundingBox,
    width: float,
    height: float,
    cfg: ExtractionConfig = DEFAULT_CONFIG,
) -> bool:
    """True iff the box centers are within max_center_dist of the image diagonal."""
    return math.dist(b1.center, b2.center) <= cfg.max_center_dist * math.hypot(width, height)


def _eligible(scene: Scene, cfg: ExtractionConfig) -> list[int]:
    min_area = cfg.min_rel_area * scene.width * scene.height
    return [
        i
        for i, obj in enumerate(scene.objects)
        if obj.score >= cfg.min_score and obj.box.area >= min_area
    ]


def _pair_grid(boxes: list[BoundingBox]):
    """Box rows shaped so a batch predicate gives the (n, n) matrix over ordered pairs."""
    import numpy as np

    rows = np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)
    return rows[:, None], rows[None]


def extract_pairwise(scene: Scene, cfg: ExtractionConfig = DEFAULT_CONFIG) -> list[RelationInstance]:
    """All pairwise relations (directional, Next, Front/Behind) in the scene.

    Every ordered eligible pair within the proximity gate is checked. A pair
    that hits both a horizontal and a vertical direction is ambiguous and
    emits no directional relation at all; Next (either horizontal hit) and
    the depth relations are emitted regardless.
    """
    s = cfg.strictness
    eligible = _eligible(scene, cfg)
    if len(eligible) < 2:  # no pair; skip the fixed cost of the numpy set-up
        return []
    import numpy as np

    boxes = [scene.objects[i].box for i in eligible]
    near = np.array([[a != b and proximity_filter(b1, b2, scene.width, scene.height, cfg)
                      for b, b2 in enumerate(boxes)] for a, b1 in enumerate(boxes)],
                    dtype=bool).reshape(len(boxes), len(boxes))
    subj, obj = _pair_grid(boxes)
    hits = {kind: batch_check_directional(subj, obj, kind, s)
            for kind in RelationKind if kind.is_directional_2d}
    # Next is either horizontal direction
    next_to = hits[RelationKind.RIGHT] | hits[RelationKind.LEFT]
    ambiguous = next_to & (hits[RelationKind.TOP] | hits[RelationKind.BOTTOM])
    layers = [(kind, hit & ~ambiguous) for kind, hit in hits.items()]
    layers.append((RelationKind.NEXT, next_to))
    if scene.depth is not None:
        overlap = batch_check_depth_overlap(subj, obj, s) & near
        # one mean per object that a gated pair compares; the comparisons are
        # exact, so a tie decides neither side
        means = np.zeros(len(boxes))
        for a in np.flatnonzero(overlap.any(axis=0) | overlap.any(axis=1)):
            means[a] = average_depth(scene.depth, boxes[a])
        layers.append((RelationKind.FRONT, overlap & (means[:, None] > means[None])))
        layers.append((RelationKind.BEHIND, overlap & (means[:, None] < means[None])))
    out = [
        RelationInstance(kind, eligible[a], (eligible[b],), scene.context)
        for kind, hit in layers
        for a, b in zip(*np.nonzero(hit & near))
    ]
    out.sort(key=RelationInstance.sort_key)
    return out


def extract_between(scene: Scene, cfg: ExtractionConfig = DEFAULT_CONFIG) -> list[RelationInstance]:
    """All Between relations over ordered triplets of eligible objects.

    The middle object m sits between a and c when a is left of m and c right
    of it, read off the n x n LEFT and RIGHT matrices, so the cost is O(n^2)
    plus the output.
    """
    s = cfg.strictness
    eligible = _eligible(scene, cfg)
    if len(eligible) < 3:  # no triple; skip the fixed cost of the numpy set-up
        return []
    import numpy as np

    subj, obj = _pair_grid([scene.objects[i].box for i in eligible])
    left = batch_check_directional(subj, obj, RelationKind.LEFT, s)
    right = batch_check_directional(subj, obj, RelationKind.RIGHT, s)
    out: list[RelationInstance] = []
    # each middle object pairs its left flankers with its right ones, so no
    # n^3 array is ever built
    for m, mid in enumerate(eligible):
        for a in np.flatnonzero(left[:, m]):
            for c in np.flatnonzero(right[:, m]):
                if a != m and c != m and a != c:
                    out.append(RelationInstance(
                        RelationKind.BETWEEN, mid, (eligible[a], eligible[c]), scene.context
                    ))
    out.sort(key=RelationInstance.sort_key)
    return out


def extract_scene(scene: Scene, cfg: ExtractionConfig = DEFAULT_CONFIG) -> list[RelationInstance]:
    """Pairwise and Between relations merged into one canonical ordering."""
    out = extract_pairwise(scene, cfg) + extract_between(scene, cfg)
    out.sort(key=RelationInstance.sort_key)
    return out
