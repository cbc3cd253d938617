"""Axis-aligned bounding-box predicates for 2D and depth-based 3D relations.

Coordinates follow the image convention: x grows rightward, y grows downward,
so "top" means smaller y. Boxes are (x_min, y_min, x_max, y_max) in absolute
pixels. All predicates are pure functions of their arguments; the strictness
value tau scales every threshold (larger tau = tighter constraints).

The four 2D kinds of RelationKind (see relations.py) select the case of the
directional predicates.

Each predicate formula is written once, in one per-pair kernel that gives
every directional verdict and the depth-overlap gate of an ordered box pair.
The public checks read it for scoring, and extraction calls it once per pair.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

from .errors import EmptyRegion
from .relations import _DIRECTIONAL_2D as _DIRECTIONS, DEFAULT_STRICTNESS, RelationKind, Strictness
from .textutil import all_numbers

__all__ = [
    "BoundingBox",
    "DepthMap",
    "check_directional",
    "check_next",
    "check_between",
    "check_depth_overlap",
    "average_depth",
    "check_depth_relation",
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
# A box enters as its four coordinates (x_min, y_min, x_max, y_max). _verdicts
# is the one kernel; the public checks below and extraction read it. Its four
# directional verdicts come in the order of relations' 2D kinds, _DIRECTIONS.
#
# Each axis picks the minuend of its two edge distances independently: the
# wider box for the horizontal distances, the taller box for the vertical
# ones (ties keep input order). That choice makes the directional checks
# exactly symmetric under argument swap. A direction's gap is the signed
# distance between the facing edges in that direction; < 0 is overlap.

_DIRECTION_INDEX = {kind: index for index, kind in enumerate(_DIRECTIONS)}


def _verdicts(p, q, tau: float) -> tuple[bool, bool, bool, bool, bool]:
    """RIGHT, LEFT, TOP and BOTTOM verdicts of p against q, then their depth-overlap gate.

    A direction holds when its facing-edge gap stays above -min_extent/tau
    along its axis and the other axis is aligned: both its edge distances
    inside the +-min_extent/tau band. The gate needs both axes aligned.
    """
    px0, py0, px1, py1 = p
    qx0, qy0, qx1, qy1 = q
    pw, ph, qw, qh = px1 - px0, py1 - py0, qx1 - qx0, qy1 - qy0
    if pw < qw:
        x_max, x_min, min_w = qx1 - px1, qx0 - px0, pw
    else:
        x_max, x_min, min_w = px1 - qx1, px0 - qx0, qw
    if ph < qh:
        y_max, y_min, min_h = qy1 - py1, qy0 - py0, ph
    else:
        y_max, y_min, min_h = py1 - qy1, py0 - qy0, qh
    w_floor, h_floor = -min_w / tau, -min_h / tau
    rows = y_max < min_h / tau and y_min > h_floor
    columns = x_max < min_w / tau and x_min > w_floor
    return (
        rows and px0 - qx1 > w_floor,
        rows and qx0 - px1 > w_floor,
        columns and qy0 - py1 > h_floor,
        columns and py0 - qy1 > h_floor,
        rows and columns,
    )


# ---------------------------------------------------------------------------
# predicates on BoundingBox values


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
    index = _DIRECTION_INDEX.get(loc)
    if index is None:
        raise ValueError(f"{loc!r} is not a 2D direction")
    return bool(_verdicts(b1.as_tuple(), b2.as_tuple(), s.tau)[index])


def check_next(
    b1: BoundingBox, b2: BoundingBox, s: Strictness = DEFAULT_STRICTNESS
) -> bool:
    """True iff b1 is next to b2: either horizontal direction holds."""
    right, left, _, _, _ = _verdicts(b1.as_tuple(), b2.as_tuple(), s.tau)
    return bool(right or left)


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
    mid = b_mid.as_tuple()
    return bool(_verdicts(b_left.as_tuple(), mid, s.tau)[1]
                and _verdicts(b_right.as_tuple(), mid, s.tau)[0])


def check_depth_overlap(
    b1: BoundingBox, b2: BoundingBox, s: Strictness = DEFAULT_STRICTNESS
) -> bool:
    """True iff the boxes overlap enough for a front/behind comparison.

    All four location-independent distances must stay inside the same
    +-min_extent/tau bands used by the directional checks.
    """
    return bool(_verdicts(b1.as_tuple(), b2.as_tuple(), s.tau)[4])


class DepthMap:
    """Per-pixel closeness field; larger value = nearer the camera.

    Metric depth (larger = farther) must be inverted before construction.

    values takes one of two forms, and the map keeps its own copy:

    - a non-empty list of equal-length, non-empty lists of numbers, as JSON
      decodes a 2D array: each item passes textutil.is_number, so a bool is
      refused, and an int must fit int64 or uint64;
    - with shape=(height, width), the flat row-major grid as an array.array
      of an integer type.

    Anything else, a tuple or a numpy array among them, raises ValueError; a
    numpy caller passes arr.tolist(). The grid is stored flat in an
    array.array. An integer grid keeps integer storage while max * size <
    2**53, so every box sum is exact in float64; any other grid, and one that
    holds a float, is stored as float64. Equality and hashing go by value,
    across storage types.

    A map made by _pending reads its storage when its values are first
    needed: by a box mean, values, flat, == or hash.
    """

    def __init__(self, values, *, shape: tuple[int, int] | None = None):
        if shape is not None:
            data, shape = _flat_grid(values, shape)
        else:
            data, shape = _list_grid(values)
        if data.typecode == "d" and not all(map(math.isfinite, data)):
            raise ValueError("depth values must be finite")
        if not data.typecode.isupper() and min(data) < 0:
            raise ValueError("depth values must be >= 0")
        if data.typecode != "d" and not _sums_exact(data):
            data = array("d", data)
        self._data = data
        self._shape = shape

    @classmethod
    def _pending(cls, read, shape: tuple[int, int]) -> DepthMap:
        """A map whose flat storage read() returns on first use.

        shape is (height, width), both positive. read takes no argument and
        returns an array.array of height * width values, or raises; values of
        its unsigned range need no check, as it keeps box sums exact (_range_sums_exact).
        """
        depth = object.__new__(cls)
        depth._read = read
        depth._shape = shape
        return depth

    @functools.cached_property
    def _data(self) -> array:
        # only a pending map gets here: __init__ stores every other map's values;
        # a read that raises caches nothing, so the next use reads again
        data = self._read()
        del self._read
        return data

    @property
    def values(self) -> list[list[int | float]]:
        """The grid as a fresh list of height row lists; floats for a float map."""
        w = self.width
        return [self._data[i:i + w].tolist() for i in range(0, len(self._data), w)]

    @property
    def flat(self) -> memoryview:
        """The grid in row-major order, read-only; format is 'd' for a float map."""
        return memoryview(self._data).toreadonly()

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def height(self) -> int:
        return self._shape[0]

    def __repr__(self) -> str:
        return f"DepthMap({self.width}x{self.height})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DepthMap):
            return NotImplemented
        return self._shape == other._shape and self._data == other._data

    def __hash__(self) -> int:
        # equal Python numbers hash equal, ints and floats alike, and -0.0 as 0
        return hash((self._shape, tuple(self._data)))


def _list_grid(rows) -> tuple[array, tuple[int, int]]:
    """A list of equal-length lists of numbers as flat storage and its (height, width).

    The checks go in order: the rows all lists of one length, or no row a
    list (else ragged), numbers only, then two non-empty dimensions. Unsigned
    storage holds non-negative ints, and its range bounds the maximum; a
    negative int or one past that range takes signed storage, and a float or
    an int past int64 takes float64. A list of numbers alone is refused by
    its one-dimensional shape.
    """
    if type(rows) is not list:
        raise ValueError(f"depth values must be a list of row lists, got {type(rows).__name__}")
    lists = sum(type(row) is list for row in rows)
    if 0 < lists < len(rows) or lists and len(set(map(len, rows))) > 1:
        raise ValueError("depth values must form a non-empty 2D grid, got ragged rows")
    grid = rows if lists else [rows]
    if not all(map(all_numbers, grid)):
        raise ValueError("depth values must be numbers")
    for typecode in ("I", "q", "d"):
        if typecode == "d" and not all(-2**63 <= v < 2**64 for row in grid for v in row
                                       if isinstance(v, int)):
            raise ValueError("depth values must be numbers")
        data = array(typecode)
        try:
            for row in grid:
                data.fromlist(row)
            break
        except (OverflowError, TypeError):  # an int past this type's range, or a float
            continue
    if not lists or not rows[0]:
        shape = (len(rows), 0) if lists else (len(rows),)
        raise ValueError(f"depth values must form a non-empty 2D grid, got shape {shape}")
    return data, (len(rows), len(rows[0]))


def _flat_grid(values, shape: tuple[int, int]) -> tuple[array, tuple[int, int]]:
    if type(values) is not array or values.typecode not in "bBhHiIlLqQ":
        raise TypeError("a flat depth grid must be an array.array of an integer type")
    height, width = shape
    if not (height > 0 and width > 0 and height * width == len(values)):
        raise ValueError(f"depth values must form a non-empty 2D grid, got {len(values)} "
                         f"values for shape {(height, width)}")
    return values[:], (height, width)


def _range_sums_exact(typecode: str, size: int) -> bool:
    """Unsigned storage of typecode and size whose range alone keeps max * size < 2**53."""
    return typecode.isupper() and 2 ** (8 * array(typecode).itemsize) - 1 <= (2**53 - 1) // size


def _sums_exact(data: array) -> bool:
    """max * size < 2**53, read off the storage's range where that suffices."""
    return _range_sums_exact(data.typecode, len(data)) or max(data) <= (2**53 - 1) // len(data)


def average_depth(d: DepthMap, b: BoundingBox) -> float:
    """Mean closeness over the box's pixel footprint.

    The footprint is the half-open integer region
    [floor(x_min), ceil(x_max)) x [floor(y_min), ceil(y_max)) clipped to the
    map; raises EmptyRegion when nothing remains.

    The mean is math.fsum of the footprint, correctly rounded, divided once
    by the pixel count. On an integer map that sum is exact, so equal values
    give the same bits whatever their storage. Where the sum passes the float
    range, the mean is taken exactly in fractions and rounded once.
    """
    x0 = max(0, math.floor(b.x_min))
    x1 = min(d.width, math.ceil(b.x_max))
    y0 = max(0, math.floor(b.y_min))
    y1 = min(d.height, math.ceil(b.y_max))
    if x1 <= x0 or y1 <= y0:
        raise EmptyRegion(f"box {b.as_tuple()} covers no pixels of a {d.width}x{d.height} map")
    data, w, n = d._data, d.width, x1 - x0
    footprint = array(data.typecode)
    for start in range(y0 * w + x0, y1 * w, w):
        footprint += data[start:start + n]
    count = (y1 - y0) * n
    try:
        return math.fsum(footprint) / count
    except OverflowError:  # the sum passes the float range; the mean never does
        from fractions import Fraction

        return float(sum(map(Fraction, footprint)) / count)


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
