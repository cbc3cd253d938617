"""Axis-aligned bounding-box predicates for 2D and depth-based 3D relations.

Coordinates follow the image convention: x grows rightward, y grows downward,
so "top" means smaller y. Boxes are (x_min, y_min, x_max, y_max) in absolute
pixels. All predicates are pure functions of their arguments; the strictness
value tau scales every threshold (larger tau = tighter constraints).

The four 2D kinds of RelationKind (see relations.py) select the case of the
directional predicates.

Each predicate formula is written once, shape-generic over Python floats and
numpy arrays. The scalar functions apply it to BoundingBox values and return
Python bool/float; the batch_* functions apply it to box rows of shape
(..., 4) and return arrays. Extraction runs the batch functions over the n x n
grid of ordered box pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegion
from .relations import DEFAULT_STRICTNESS, RelationKind, Strictness

__all__ = [
    "BoundingBox",
    "DepthMap",
    "check_directional",
    "check_next",
    "check_between",
    "check_depth_overlap",
    "average_depth",
    "check_depth_relation",
    "batch_check_directional",
    "batch_check_next",
    "batch_check_between",
    "batch_check_depth_overlap",
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel space; degenerate boxes are rejected."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite, got {coords}")
        if any(c < 0 for c in coords):
            raise ValueError(f"box coordinates must be >= 0, got {coords}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"box must have positive extent, got {coords}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


# ---------------------------------------------------------------------------
# predicate formulas
#
# A box enters as its four coordinates (x_min, y_min, x_max, y_max): Python
# floats from a BoundingBox, or arrays from box rows, which broadcast by numpy
# rules. The public scalar and batch_* functions below are adapters.


def _pick(flag, a, b):
    """a where flag holds, else b."""
    if isinstance(flag, np.ndarray):
        return np.where(flag, a, b)
    return a if flag else b


def _pair(p, q):
    """Axis distances of boxes p and q, then their smaller width and height.

    Each axis picks its minuend independently: the wider box for the
    horizontal distances, the taller box for the vertical ones (ties keep
    input order). That choice makes the directional checks exactly symmetric
    under argument swap.
    """
    px0, py0, px1, py1 = p
    qx0, qy0, qx1, qy1 = q
    pw, ph, qw, qh = px1 - px0, py1 - py0, qx1 - qx0, qy1 - qy0
    hswap, vswap = pw < qw, ph < qh
    return (
        _pick(hswap, qx1 - px1, px1 - qx1),
        _pick(hswap, qx0 - px0, px0 - qx0),
        _pick(vswap, qy1 - py1, py1 - qy1),
        _pick(vswap, qy0 - py0, py0 - qy0),
        _pick(hswap, pw, qw),
        _pick(vswap, ph, qh),
    )


def _distance(p, q, kind: RelationKind):
    """Signed gap between the facing edges of p and q in direction kind; < 0 is overlap."""
    px0, py0, px1, py1 = p
    qx0, qy0, qx1, qy1 = q
    if kind is RelationKind.RIGHT:
        return px0 - qx1
    if kind is RelationKind.LEFT:
        return qx0 - px1
    if kind is RelationKind.BOTTOM:
        return py0 - qy1
    if kind is RelationKind.TOP:
        return qy0 - py1
    raise ValueError(f"{kind!r} is not a 2D direction")


def _within(max_dist, min_dist, extent, tau: float):
    """Both edge distances of one axis inside the +-extent/tau band."""
    return (max_dist < extent / tau) & (min_dist > -extent / tau)


def _directional(p, q, kind: RelationKind, tau: float):
    dist = _distance(p, q, kind)
    x_max, x_min, y_max, y_min, min_w, min_h = _pair(p, q)
    if kind is RelationKind.RIGHT or kind is RelationKind.LEFT:
        return (dist > -min_w / tau) & _within(y_max, y_min, min_h, tau)
    return (dist > -min_h / tau) & _within(x_max, x_min, min_w, tau)


def _depth_overlap(p, q, tau: float):
    x_max, x_min, y_max, y_min, min_w, min_h = _pair(p, q)
    return _within(x_max, x_min, min_w, tau) & _within(y_max, y_min, min_h, tau)


# ---------------------------------------------------------------------------
# scalar predicates on BoundingBox values


def check_directional(
    b1: BoundingBox,
    b2: BoundingBox,
    loc: RelationKind,
    s: Strictness = DEFAULT_STRICTNESS,
) -> bool:
    """True iff b1 is strictly in direction loc of b2.

    loc is one of the four 2D kinds (RIGHT, LEFT, TOP, BOTTOM); any other kind
    raises ValueError.

    Three strict inequalities must hold: the facing-edge gap may not fall below
    -min_extent/tau (limits overlap along the relation axis), and the two
    cross-axis distances must stay inside +-min_extent/tau (the boxes must be
    roughly aligned on the other axis). Boundary values fail.
    """
    return bool(_directional(b1.as_tuple(), b2.as_tuple(), loc, s.tau))


def check_next(
    b1: BoundingBox, b2: BoundingBox, s: Strictness = DEFAULT_STRICTNESS
) -> bool:
    """True iff b1 is next to b2: either horizontal direction holds."""
    return check_directional(b1, b2, RelationKind.RIGHT, s) or check_directional(
        b1, b2, RelationKind.LEFT, s
    )


def check_between(
    b_left: BoundingBox,
    b_mid: BoundingBox,
    b_right: BoundingBox,
    s: Strictness = DEFAULT_STRICTNESS,
) -> bool:
    """True iff b_mid sits between b_left and b_right.

    Order-specific: b_left must be left of the middle and b_right right of it.
    Side-agnostic acceptance belongs to the evaluator, not here.
    """
    return check_directional(b_left, b_mid, RelationKind.LEFT, s) and check_directional(
        b_right, b_mid, RelationKind.RIGHT, s
    )


def check_depth_overlap(
    b1: BoundingBox, b2: BoundingBox, s: Strictness = DEFAULT_STRICTNESS
) -> bool:
    """True iff the boxes overlap enough for a front/behind comparison.

    All four location-independent distances must stay inside the same
    +-min_extent/tau bands used by the directional checks.
    """
    return bool(_depth_overlap(b1.as_tuple(), b2.as_tuple(), s.tau))


class DepthMap:
    """Per-pixel closeness field; larger value = nearer the camera.

    Metric depth (larger = farther) must be inverted before construction.
    Values are stored as a read-only grid of shape (height, width). An integer
    grid keeps its integer dtype (native byte order) while max * size < 2**53,
    so every box sum is exact in float64 and average_depth gives the same bits
    as over float64 values; any other grid is stored as float64. Equality and
    hashing go by value, across dtypes.
    """

    def __init__(self, values):
        # infer the dtype first, so bools, strings and objects are rejected
        # instead of coerced; a bool mixed among ints is upcast and accepted
        try:
            arr = np.asarray(values)
        except TypeError:
            raise ValueError("depth values must be numbers") from None
        except ValueError:  # numpy refuses rows of unequal length
            raise ValueError("depth values must form a non-empty 2D grid, got ragged rows") from None
        kind = arr.dtype.kind
        if kind not in "iuf":
            raise ValueError("depth values must be numbers")
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"depth values must form a non-empty 2D grid, got shape {arr.shape}")
        if kind == "f" and not np.isfinite(arr).all():
            raise ValueError("depth values must be finite")
        if kind != "u" and (arr < 0).any():
            raise ValueError("depth values must be >= 0")
        exact = kind != "f" and int(arr.max()) * arr.size < 2**53
        # astype copies, so the caller's array is never frozen
        arr = arr.astype(arr.dtype.newbyteorder("=") if exact else np.float64)
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def width(self) -> int:
        return self._values.shape[1]

    @property
    def height(self) -> int:
        return self._values.shape[0]

    def __repr__(self) -> str:
        return f"DepthMap({self.width}x{self.height})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DepthMap):
            return NotImplemented
        return self._values.shape == other._values.shape and bool(
            (self._values == other._values).all()
        )

    def __hash__(self) -> int:
        # float64 bytes agree across dtypes; adding 0.0 turns -0.0 into 0.0
        return hash((self._values.shape,
                     np.add(self._values, 0.0, dtype=np.float64).tobytes()))


def average_depth(d: DepthMap, b: BoundingBox) -> float:
    """Mean closeness over the box's pixel footprint.

    The footprint is the half-open integer region
    [floor(x_min), ceil(x_max)) x [floor(y_min), ceil(y_max)) clipped to the
    map; raises EmptyRegion when nothing remains.
    """
    x0 = max(0, math.floor(b.x_min))
    x1 = min(d.width, math.ceil(b.x_max))
    y0 = max(0, math.floor(b.y_min))
    y1 = min(d.height, math.ceil(b.y_max))
    if x1 <= x0 or y1 <= y0:
        raise EmptyRegion(f"box {b.as_tuple()} covers no pixels of a {d.width}x{d.height} map")
    return float(d.values[y0:y1, x0:x1].mean())


def check_depth_relation(
    b1: BoundingBox,
    b2: BoundingBox,
    d: DepthMap,
    s: Strictness = DEFAULT_STRICTNESS,
) -> RelationKind | None:
    """FRONT/BEHIND verdict for b1 relative to b2, or None.

    None when the overlap gate fails or the average depths tie exactly; a tie
    carries no information either way.
    """
    if not check_depth_overlap(b1, b2, s):
        return None
    d1 = average_depth(d, b1)
    d2 = average_depth(d, b2)
    if d1 > d2:
        return RelationKind.FRONT
    if d1 < d2:
        return RelationKind.BEHIND
    return None


# ---------------------------------------------------------------------------
# batch predicates on box rows
#
# Arrays hold boxes as rows [x_min, y_min, x_max, y_max]. Broadcasting follows
# numpy rules, so (N, 4) against (N, 4) gives (N,) verdicts, and (N, 1, 4)
# against (1, N, 4) gives the (N, N) matrix over all ordered pairs.


def _rows(a):
    """Box rows of shape (..., 4) as their four coordinate arrays."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape[-1] != 4:
        raise ValueError(f"expected boxes with 4 coordinates in the last axis, got {arr.shape}")
    return arr[..., 0], arr[..., 1], arr[..., 2], arr[..., 3]


def batch_check_directional(b1, b2, loc: RelationKind, s: Strictness = DEFAULT_STRICTNESS):
    """Vectorized check_directional; returns a boolean array."""
    return _directional(_rows(b1), _rows(b2), loc, s.tau)


def batch_check_next(b1, b2, s: Strictness = DEFAULT_STRICTNESS):
    return batch_check_directional(b1, b2, RelationKind.RIGHT, s) | batch_check_directional(
        b1, b2, RelationKind.LEFT, s
    )


def batch_check_between(b_left, b_mid, b_right, s: Strictness = DEFAULT_STRICTNESS):
    return batch_check_directional(b_left, b_mid, RelationKind.LEFT, s) & batch_check_directional(
        b_right, b_mid, RelationKind.RIGHT, s
    )


def batch_check_depth_overlap(b1, b2, s: Strictness = DEFAULT_STRICTNESS):
    return _depth_overlap(_rows(b1), _rows(b2), s.tau)
