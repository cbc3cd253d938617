"""Geometry predicates: frozen worked examples, oracle agreement, invariants."""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spatialbench import geometry
from spatialbench.errors import EmptyRegion
from spatialbench.geometry import (
    BoundingBox,
    DepthMap,
    average_depth,
    check_between,
    check_depth_overlap,
    check_depth_relation,
    check_directional,
    check_next,
)
from spatialbench.relations import RelationKind, Strictness

import naive_reference as ref
from strategies import boxes, integer_boxes, strictness

B_A1 = BoundingBox(60, 10, 100, 50)
B_A2 = BoundingBox(0, 0, 40, 40)
TAU3 = Strictness(3)

DIRECTIONS = [k for k in RelationKind if k.is_directional_2d]


def axis_distances(b1, b2):
    """(x_max, x_min, y_max, y_min) distances of the formula every predicate shares."""
    return ref.naive_axis_distances(b1.as_tuple(), b2.as_tuple())


def directional_distance(b1, b2, kind):
    """Signed facing-edge gap of the directional formula."""
    return ref.naive_directional_distance(b1.as_tuple(), b2.as_tuple(), kind.value)


def gradient_map(width=100, height=100):
    # value(x, y) = x
    return DepthMap(np.tile(np.arange(width, dtype=np.float64), (height, 1)).tolist())


class TestConstruction:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BoundingBox(5, 5, 5, 5)
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 5, 10)

    def test_negative_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(-1, 0, 10, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, math.nan, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, math.inf, 10)

    def test_strictness_requires_positive_tau(self):
        with pytest.raises(ValueError):
            Strictness(0)
        with pytest.raises(ValueError):
            Strictness(-3)
        assert Strictness().tau == 3.0

    def test_depth_map_validation(self):
        with pytest.raises(ValueError):
            DepthMap([1.0, 2.0])
        with pytest.raises(ValueError):
            DepthMap([[1.0, math.nan]])
        with pytest.raises(ValueError):
            DepthMap([[-1.0]])
        d = DepthMap([[1.0, 2.0], [3.0, 4.0]])
        assert (d.width, d.height) == (2, 2)
        d.values[0][0] = 9.0  # values is a fresh copy each read
        assert d.values == [[1.0, 2.0], [3.0, 4.0]]

    def test_depth_map_reads_lists_of_json_numbers_only(self):
        class Grid:
            def tolist(self):
                return [[1, 2], [3, 4]]

        for values, name in (((1, 2), "tuple"), (Grid(), "Grid"), (np.ones((2, 2)), "ndarray")):
            with pytest.raises(ValueError, match=f"list of row lists, got {name}$"):
                DepthMap(values)
        for values in ([(1, 2), (3, 4)], [[True, 2], [3, 4]], [[1, 2], [3, False]], [[True]],
                       [[np.int64(1)]]):
            with pytest.raises(ValueError, match="must be numbers$"):
                DepthMap(values)
        assert DepthMap([[np.float64(1.5)]]) == DepthMap([[1.5]])  # a float subclass is a float


class TestAxisDistances:
    def test_worked_example(self):
        assert axis_distances(B_A1, B_A2) == (60, 60, 10, 10)

    def test_coincident_boxes(self):
        assert axis_distances(B_A2, B_A2) == (0, 0, 0, 0)

    def test_per_axis_swap(self):
        # b1 narrow and tall, b2 wide and short: horizontal distances swap to
        # b2 minus b1, vertical distances keep b1 as minuend.
        b1 = BoundingBox(0, 0, 10, 100)
        b2 = BoundingBox(0, 0, 100, 10)
        assert axis_distances(b1, b2) == (90, 0, 90, 0)

    @given(boxes(), boxes())
    def test_symmetric_under_argument_swap(self, a, b):
        # The wider/taller minuend rule only leaves sign freedom on tied axes,
        # where both cross-axis constraints collapse to an absolute bound.
        da = axis_distances(a, b)
        db = axis_distances(b, a)
        if a.width != b.width:
            assert da[:2] == db[:2]
        if a.height != b.height:
            assert da[2:] == db[2:]


class TestDirectionalDistance:
    def test_right_worked_example(self):
        assert directional_distance(B_A1, B_A2, RelationKind.RIGHT) == 20

    def test_bottom_worked_example(self):
        b1 = BoundingBox(0, 50, 40, 90)
        b2 = BoundingBox(0, 0, 40, 40)
        assert directional_distance(b1, b2, RelationKind.BOTTOM) == 10

    def test_identical_boxes_give_negative_extent(self):
        assert directional_distance(B_A2, B_A2, RelationKind.RIGHT) == -40
        assert directional_distance(B_A2, B_A2, RelationKind.LEFT) == -40
        assert directional_distance(B_A2, B_A2, RelationKind.TOP) == -40
        assert directional_distance(B_A2, B_A2, RelationKind.BOTTOM) == -40


class TestCheckDirectional:
    def test_worked_example_all_localities(self):
        # thresholds at tau=3 are +-13.33; right distance 20, cross dists 10.
        assert check_directional(B_A1, B_A2, RelationKind.RIGHT, TAU3) is True
        assert check_directional(B_A1, B_A2, RelationKind.LEFT, TAU3) is False
        assert check_directional(B_A1, B_A2, RelationKind.TOP, TAU3) is False
        assert check_directional(B_A1, B_A2, RelationKind.BOTTOM, TAU3) is False

    def test_identical_boxes_fail_everywhere(self):
        for loc in DIRECTIONS:
            assert check_directional(B_A2, B_A2, loc, TAU3) is False

    def test_stacked_boxes_pass_bottom_only(self):
        lower = BoundingBox(0, 50, 40, 90)
        upper = BoundingBox(0, 0, 40, 40)
        assert check_directional(lower, upper, RelationKind.BOTTOM, TAU3) is True
        assert check_directional(upper, lower, RelationKind.TOP, TAU3) is True
        assert check_directional(lower, upper, RelationKind.RIGHT, TAU3) is False

    def test_boundary_values_fail(self):
        # Facing-edge gap exactly at -min_w/tau must fail (strict inequality).
        b2 = BoundingBox(0, 0, 30, 30)
        b1 = BoundingBox(20, 0, 50, 30)  # gap = -10 = -30/3
        assert check_directional(b1, b2, RelationKind.RIGHT, TAU3) is False
        nudged = BoundingBox(20.0001, 0, 50.0001, 30)
        assert check_directional(nudged, b2, RelationKind.RIGHT, TAU3) is True

    @pytest.mark.parametrize("kind", [k for k in RelationKind if not k.is_directional_2d])
    def test_non_directional_kind_rejected(self, kind):
        with pytest.raises(ValueError):
            check_directional(B_A1, B_A2, kind, TAU3)

    @given(boxes(), boxes(), strictness())
    def test_matches_naive_oracle(self, a, b, s):
        for loc in DIRECTIONS:
            expected = ref.naive_check_directional(a.as_tuple(), b.as_tuple(), loc.value, s.tau)
            assert check_directional(a, b, loc, s) == expected

    @given(boxes(), boxes(), strictness())
    def test_pair_symmetry(self, a, b, s):
        assert check_directional(a, b, RelationKind.RIGHT, s) == check_directional(b, a, RelationKind.LEFT, s)
        assert check_directional(a, b, RelationKind.BOTTOM, s) == check_directional(b, a, RelationKind.TOP, s)

    @given(boxes(), boxes(), strictness(), strictness())
    def test_tau_monotonicity(self, a, b, s1, s2):
        hi, lo = (s1, s2) if s1.tau >= s2.tau else (s2, s1)
        for loc in DIRECTIONS:
            if check_directional(a, b, loc, hi):
                assert check_directional(a, b, loc, lo)

    def test_exhaustive_small_grid_against_oracle(self):
        # Every ordered pair of integer boxes on a 4x4 grid, all localities.
        spans = [(lo, hi) for lo in range(5) for hi in range(lo + 1, 5)]
        grid = [BoundingBox(x0, y0, x1, y1) for x0, x1 in spans for y0, y1 in spans]
        for a in grid:
            for b in grid:
                for loc in DIRECTIONS:
                    got = check_directional(a, b, loc, TAU3)
                    want = ref.naive_check_directional(a.as_tuple(), b.as_tuple(), loc.value, 3.0)
                    assert got == want, (a, b, loc)


class TestCheckNext:
    def test_worked_example(self):
        assert check_next(B_A1, B_A2, TAU3) is True

    def test_identical_boxes(self):
        assert check_next(B_A2, B_A2, TAU3) is False

    def test_vertically_stacked_boxes_are_not_next(self):
        assert check_next(BoundingBox(0, 0, 40, 40), BoundingBox(0, 50, 40, 90), TAU3) is False

    @given(boxes(), boxes(), strictness())
    def test_symmetry(self, a, b, s):
        assert check_next(a, b, s) == check_next(b, a, s)


class TestCheckBetween:
    LEFT = BoundingBox(0, 0, 20, 40)
    MID = BoundingBox(30, 0, 50, 40)
    RIGHT = BoundingBox(60, 0, 80, 40)

    def test_worked_example(self):
        assert check_between(self.LEFT, self.MID, self.RIGHT, TAU3) is True

    def test_coincident_boxes(self):
        assert check_between(B_A2, B_A2, B_A2, TAU3) is False

    def test_order_specific(self):
        assert check_between(self.RIGHT, self.MID, self.LEFT, TAU3) is False

    @given(boxes(), boxes(), boxes(), strictness())
    def test_matches_naive_oracle(self, l, m, r, s):
        want = ref.naive_check_between(l.as_tuple(), m.as_tuple(), r.as_tuple(), s.tau)
        assert check_between(l, m, r, s) == want


class TestCheckDepthOverlap:
    def test_worked_example(self):
        b1 = BoundingBox(50, 20, 90, 60)
        b2 = BoundingBox(40, 25, 80, 65)
        assert axis_distances(b1, b2) == (10, 10, -5, -5)
        assert check_depth_overlap(b1, b2, TAU3) is True

    def test_identical_boxes_overlap(self):
        assert check_depth_overlap(B_A2, B_A2, TAU3) is True

    def test_disjoint_boxes(self):
        assert check_depth_overlap(BoundingBox(0, 0, 10, 10), BoundingBox(500, 500, 600, 600), TAU3) is False

    @given(boxes(), boxes(), strictness())
    def test_matches_naive_oracle(self, a, b, s):
        want = ref.naive_check_depth_overlap(a.as_tuple(), b.as_tuple(), s.tau)
        assert check_depth_overlap(a, b, s) == want


class TestAverageDepth:
    def test_constant_map(self):
        d = DepthMap(np.full((50, 80), 7.25).tolist())
        assert average_depth(d, BoundingBox(3, 9, 41, 20)) == 7.25

    def test_gradient_worked_example(self):
        d = gradient_map()
        assert average_depth(d, BoundingBox(50, 20, 90, 60)) == 69.5
        assert average_depth(d, BoundingBox(40, 25, 80, 65)) == 59.5

    def test_box_outside_map(self):
        d = gradient_map()
        with pytest.raises(EmptyRegion):
            average_depth(d, BoundingBox(200, 200, 250, 250))

    def test_subpixel_box_covers_one_pixel(self):
        d = gradient_map()
        assert average_depth(d, BoundingBox(5.2, 3.1, 5.9, 3.8)) == 5.0

    def test_partial_overlap_clips_to_map(self):
        d = gradient_map(width=10, height=10)
        # x columns 8, 9 only after clipping
        assert average_depth(d, BoundingBox(8, 0, 25, 10)) == 8.5

    def test_sum_past_float_range_gives_finite_mean(self):
        big = sys.float_info.max
        rows = [[big, big, big], [big / 2, 1.0, 0.0]]
        d = DepthMap(rows)
        for b in (BoundingBox(0, 0, 3, 1), BoundingBox(0, 0, 2, 2), BoundingBox(0, 0, 3, 2)):
            assert within_two_ulps(average_depth(d, b), rows, b)

    @given(boxes(), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_translation_equivariance(self, b, shift):
        rng = np.random.default_rng(7)
        base = rng.integers(0, 100, size=(64, 64)).astype(np.float64)
        box = BoundingBox(
            b.x_min % 50, b.y_min % 50, b.x_min % 50 + min(b.width, 14), b.y_min % 50 + min(b.height, 14)
        )
        d0 = average_depth(DepthMap(base.tolist()), box)
        d1 = average_depth(DepthMap((base + shift).tolist()), box)
        assert math.isclose(d1, d0 + shift, rel_tol=1e-12, abs_tol=1e-9)

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_float_means_within_two_ulps_of_exact(self, height, width, data):
        cells = st.floats(0, 1e6) | st.floats(0, 1e-3) | st.floats(0, 2.0**1000)
        rows = data.draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                                  min_size=height, max_size=height))
        d = DepthMap(rows)
        for b in data.draw(st.lists(integer_boxes(grid=8), min_size=1, max_size=6)):
            if b.x_min < width and b.y_min < height:
                assert within_two_ulps(average_depth(d, b), rows, b)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_whole_number_float_grid_gives_integer_bits(self, height, width, top, data):
        flat = data.draw(st.lists(st.integers(0, top), min_size=height * width,
                                  max_size=height * width))
        rows = [flat[i:i + width] for i in range(0, len(flat), width)]
        ints, floats = DepthMap(rows), DepthMap([[float(v) for v in row] for row in rows])
        assert (ints.flat.format, floats.flat.format) == ("I", "d")
        for b in data.draw(st.lists(integer_boxes(grid=30), min_size=1, max_size=6)):
            if b.x_min < width and b.y_min < height:
                assert average_depth(floats, b).hex() == average_depth(ints, b).hex()


class TestIntegerDepthMaps:
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 65535), st.integers(0, 2**32 - 1),
           st.lists(integer_boxes(grid=40), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_means_are_bit_identical_across_dtypes(self, height, width, top, seed, bs):
        grid = np.random.default_rng(seed).integers(0, top, size=(height, width), endpoint=True)
        maps = [DepthMap(grid.astype(t).tolist()) for t in (np.uint16, np.int64, np.float64)]
        assert [m.flat.format for m in maps] == ["I", "I", "d"]
        for b in bs:
            if b.x_min >= width or b.y_min >= height:
                continue  # covers no pixel of this map
            means = {average_depth(m, b).hex() for m in maps}
            assert len(means) == 1

    def test_equal_values_compare_and_hash_equal(self):
        grid = np.arange(12).reshape(3, 4)
        maps = [DepthMap(grid.astype(t).tolist()) for t in (np.uint8, ">u2", np.int64, np.float64)]
        assert maps[1].values == grid.tolist()
        assert all(m == maps[0] for m in maps)
        assert len({hash(m) for m in maps}) == 1
        assert DepthMap(grid.tolist()) != DepthMap((grid + 1).tolist())
        assert hash(DepthMap([[-0.0, 1.0]])) == hash(DepthMap([[0, 1]]))

    def test_sums_past_2_to_53_take_the_float64_path(self):
        # max * size must stay below 2**53 for every box sum to be exact
        assert DepthMap(np.full((2, 2), 2**51 - 1).tolist()).flat.format == "q"
        assert DepthMap(np.full((2, 2), 2**51).tolist()).flat.format == "d"
        assert DepthMap([[2**60, 1]]).flat.format == "d"

    def test_negative_integers_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DepthMap(np.array([[3, -1]], dtype=np.int16).tolist())


# ---------------------------------------------------------------------------
# DepthMap against the numpy grid (naive_reference)

_EDGE_INTS = st.sampled_from([2**31, 2**32 - 1, 2**32, 2**51, 2**53, 2**63 - 1, 2**63,
                              2**64 - 1, 2**64, 10**30, -1, -(2**63), -(2**63) - 1])
_ELEMENTS = {
    "ints": st.integers(0, 70000),
    "bools": st.booleans(),
    "ints and bools": st.one_of(st.integers(0, 3), st.booleans()),
    "floats": st.one_of(st.floats(0, 1e6), st.integers(0, 100), st.just(-0.0)),
    "edges": st.one_of(st.integers(-2, 2), _EDGE_INTS,
                       st.floats(allow_nan=True, allow_infinity=True)),
    "junk": st.one_of(st.integers(0, 9), st.none(), st.text(max_size=2),
                      st.just([1]), st.just({})),
}


@st.composite
def json_grids(draw):
    """Nested lists as JSON decodes them: mostly rectangular, some not 2D at all."""
    elements = _ELEMENTS[draw(st.sampled_from(sorted(_ELEMENTS)))]
    height, width = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    grid = [[draw(elements) for _ in range(width)] for _ in range(height)]
    form = draw(st.sampled_from(["2d", "2d", "2d", "ragged", "1d", "3d", "tuple rows"]))
    if form == "ragged" and grid and grid[-1]:
        grid[-1].pop()
    elif form == "1d":
        grid = grid[0] if grid else []
    elif form == "3d":
        grid = [[[v] for v in row] for row in grid]
    elif form == "tuple rows":
        grid = [tuple(row) for row in grid]
    return grid


_DTYPES = ["u1", "u2", ">u2", "i2", ">i4", "i8", "u4", "u8", "f4", "f8", "?"]


def _outside_json_numbers(values) -> bool:
    """A grid that numpy reads and DepthMap refuses: tuple rows, a bool, or deeper nesting."""
    rows = [row if isinstance(row, (list, tuple)) else [row] for row in values]
    return any(type(row) is tuple or any(isinstance(v, (bool, list, tuple)) for v in row)
               for row in rows)


def _agreeing_map(make, values) -> tuple[DepthMap, np.ndarray] | None:
    """The map make() builds, checked against the reference; None where both reject.

    A grid _outside_json_numbers names is refused without the reference, which
    reads it, or names its nesting, where DepthMap refuses its items as numbers.
    """
    if isinstance(values, list) and _outside_json_numbers(values):
        with pytest.raises(ValueError, match="must be numbers|ragged rows"):
            make()
        return None
    try:
        want = ref.numpy_depth_grid(values)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            make()
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return None
    got = make()
    assert want.shape == (got.height, got.width)
    assert got.values == want.tolist()
    value_type = float if want.dtype.kind == "f" else int
    assert all(type(v) is value_type for row in got.values for v in row)
    assert (got.flat.format == "d") == (value_type is float)
    return got, want


def within_two_ulps(mean: float, rows, b: BoundingBox) -> bool:
    exact = ref.exact_average_depth(rows, b.as_tuple())
    return abs(Fraction(mean) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def _same_means(got: DepthMap, want: np.ndarray, bs) -> None:
    """Integer maps give numpy's bits; float maps stay within 2 ulps of the exact mean."""
    for b in bs:
        mean = ref.numpy_average_depth(want, b.as_tuple())
        if mean is None:
            with pytest.raises(EmptyRegion):
                average_depth(got, b)
        elif want.dtype.kind == "f":
            assert within_two_ulps(average_depth(got, b), want.tolist(), b)
        else:
            assert average_depth(got, b).hex() == mean.hex()


class TestDepthMapAgainstNumpy:
    @given(json_grids(), st.lists(integer_boxes(grid=6), max_size=6))
    @example([[True, False]], [])
    @example([[1, 2], [3]], [])
    @example([[[1]]], [])
    @example([[2**63, 1]], [])
    @example([[2**51, 2**51]], [])
    @example([[2**52, 0]], [])  # max * size reaches 2**53: float64
    @example([[True, 1], [0, 2]], [])
    @example([[1, 2.5]], [])
    @example([[-1, 2]], [])
    @example([[1.7e308, 1.7e308]], [BoundingBox(0, 0, 2, 1)])  # the sum passes the float range
    @settings(max_examples=250, deadline=None)
    def test_nested_lists(self, grid, bs):
        found = _agreeing_map(lambda: DepthMap(grid), grid)
        if found is not None:
            _same_means(*found, bs)

    @given(hnp.arrays(st.sampled_from(_DTYPES),
                      hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5)),
           st.lists(integer_boxes(grid=6), max_size=6))
    @settings(max_examples=250, deadline=None)
    def test_numpy_arrays(self, arr, bs):
        # a numpy caller passes arr.tolist(); the array itself is no grid
        with pytest.raises(ValueError, match="list of row lists, got ndarray"):
            DepthMap(arr)
        found = _agreeing_map(lambda: DepthMap(arr.tolist()), arr.tolist())
        if found is not None:
            _same_means(*found, bs)

    @given(st.sampled_from("bBhHiIlLqQ"), st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_flat_arrays(self, typecode, height, width, data):
        bits = 8 * array(typecode).itemsize
        lo, hi = (0, 2**bits - 1) if typecode.isupper() else (-3, 2 ** (bits - 1) - 1)
        values = data.draw(st.lists(st.integers(lo, hi) | st.integers(0, min(hi, 300)),
                                    min_size=height * width, max_size=height * width))
        flat = array(typecode, values)
        found = _agreeing_map(lambda: DepthMap(flat, shape=(height, width)),
                              np.array(flat, dtype=typecode).reshape(height, width))
        if found is not None:
            _same_means(*found, data.draw(st.lists(integer_boxes(grid=6), max_size=6)))
            assert DepthMap(flat, shape=(height, width)) == DepthMap(
                [values[i:i + width] for i in range(0, len(values), width)])

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 254), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equality_and_hash_across_dtypes(self, height, width, top, data):
        flat = data.draw(st.lists(st.integers(0, top), min_size=height * width,
                                  max_size=height * width))
        rows = [flat[i:i + width] for i in range(0, len(flat), width)]

        def forms(flat, rows):
            return [DepthMap(rows), DepthMap([[float(v) for v in row] for row in rows]),
                    *(DepthMap(np.array(rows, dtype=t).tolist())
                      for t in ("u1", ">u2", "i8", "f8")),
                    *(DepthMap(array(t, flat), shape=(height, width)) for t in "BHq")]

        maps = forms(flat, rows)
        assert all(m == maps[0] for m in maps)
        assert len({hash(m) for m in maps}) == 1
        cell = data.draw(st.integers(0, len(flat) - 1))
        other = flat[:cell] + [flat[cell] + 1] + flat[cell + 1:]
        other_rows = [other[i:i + width] for i in range(0, len(other), width)]
        assert all(a != b for a, b in zip(maps, forms(other, other_rows)))
        if height != width:
            assert DepthMap(array("q", flat), shape=(width, height)) != maps[0]

    def test_unsigned_range_proves_exact_sums_only_on_small_grids(self):
        # past 2**21 cells, 2**32 - 1 per cell no longer keeps the sum below 2**53
        n = 2**21 + 1
        assert geometry._sums_exact(array("I", [2**32 - 1]) * 2**21)
        assert geometry._sums_exact(array("I", bytes(4 * n)))
        big = array("I", bytes(4 * n))
        big[-1] = 2**32 - 1
        assert not geometry._sums_exact(big)
        assert DepthMap(big, shape=(3, n // 3)).flat.format == "d"
        assert DepthMap(big[:-1] + array("I", [1]), shape=(3, n // 3)).flat.format == "I"

    def test_flat_input_is_copied_and_checked(self):
        flat = array("H", [1, 2, 3, 4, 5, 6])
        d = DepthMap(flat, shape=(2, 3))
        flat[0] = 9
        assert d.values[0][0] == 1 and d.flat.readonly
        with pytest.raises(ValueError, match="non-empty 2D grid"):
            DepthMap(flat, shape=(4, 2))
        with pytest.raises(TypeError):
            DepthMap([1, 2, 3, 4, 5, 6], shape=(2, 3))
        with pytest.raises(TypeError):
            DepthMap(array("d", [1.0]), shape=(1, 1))


class TestCheckDepthRelation:
    def test_front_worked_example(self):
        b1 = BoundingBox(50, 20, 90, 60)
        b2 = BoundingBox(40, 25, 80, 65)
        assert check_depth_relation(b1, b2, gradient_map(), TAU3) is RelationKind.FRONT
        assert check_depth_relation(b2, b1, gradient_map(), TAU3) is RelationKind.BEHIND

    def test_constant_map_ties_to_none(self):
        b1 = BoundingBox(50, 20, 90, 60)
        b2 = BoundingBox(40, 25, 80, 65)
        d = DepthMap(np.full((100, 100), 3.0).tolist())
        assert check_depth_relation(b1, b2, d, TAU3) is None

    def test_disjoint_boxes_gate_to_none(self):
        d = gradient_map()
        assert check_depth_relation(BoundingBox(0, 0, 10, 10), BoundingBox(50, 50, 90, 90), d, TAU3) is None

    @given(integer_boxes(grid=60), integer_boxes(grid=60), strictness())
    @settings(max_examples=100)
    def test_antisymmetry_on_random_maps(self, a, b, s):
        rng = np.random.default_rng(13)
        d = DepthMap(rng.integers(0, 500, size=(64, 64)).astype(np.float64).tolist())
        fwd = check_depth_relation(a, b, d, s)
        rev = check_depth_relation(b, a, d, s)
        if fwd is RelationKind.FRONT:
            assert rev is RelationKind.BEHIND
        elif fwd is RelationKind.BEHIND:
            assert rev is RelationKind.FRONT
        else:
            assert rev is None

    @given(st.integers(0, 2**32 - 1), integer_boxes(grid=23), integer_boxes(grid=23), strictness())
    @settings(max_examples=150, deadline=None)
    def test_float_maps_agree_with_numpy_means_apart(self, seed, a, b, s):
        # the verdict may differ only where numpy's own means are within 8 ulps
        grid = np.random.default_rng(seed).uniform(0, 1000, size=(24, 24))
        d = DepthMap(grid.tolist())
        means = [ref.numpy_average_depth(grid, box.as_tuple()) for box in (a, b)]
        if not check_depth_overlap(a, b, s) or abs(means[0] - means[1]) <= 8 * math.ulp(max(means)):
            return
        want = RelationKind.FRONT if means[0] > means[1] else RelationKind.BEHIND
        assert check_depth_relation(a, b, d, s) is want


class TestPairKernel:
    """The one per-pair kernel that every check and extraction read."""

    @given(boxes(), boxes(), strictness())
    @example(BoundingBox(0, 0, 30, 30), BoundingBox(20, 0, 50, 30), TAU3)  # gap at the band edge
    def test_verdicts_match_naive_oracle(self, a, b, s):
        p, q = a.as_tuple(), b.as_tuple()
        want = tuple(ref.naive_check_directional(p, q, loc.value, s.tau)
                     for loc in geometry._DIRECTIONS)
        want += (ref.naive_check_depth_overlap(p, q, s.tau),)
        got = geometry._verdicts(p, q, s.tau)
        assert got == want
        assert all(type(v) is bool for v in got)
