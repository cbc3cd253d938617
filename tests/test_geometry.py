"""Geometry predicates: frozen worked examples, oracle agreement, invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialbench.errors import EmptyRegion
from spatialbench.geometry import (
    BoundingBox,
    DepthMap,
    RelationKind,
    Strictness,
    average_depth,
    axis_distances,
    batch_axis_distances,
    batch_check_between,
    batch_check_depth_overlap,
    batch_check_directional,
    batch_check_next,
    check_between,
    check_depth_overlap,
    check_depth_relation,
    check_directional,
    check_next,
    directional_distance,
)

import naive_reference as ref
from strategies import boxes, integer_boxes, strictness

B_A1 = BoundingBox(60, 10, 100, 50)
B_A2 = BoundingBox(0, 0, 40, 40)
TAU3 = Strictness(3)

DIRECTIONS = [k for k in RelationKind if k.is_directional_2d]


def gradient_map(width=100, height=100):
    # value(x, y) = x
    return DepthMap(np.tile(np.arange(width, dtype=np.float64), (height, 1)))


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
        with pytest.raises(ValueError):
            d.values[0, 0] = 9.0


class TestAxisDistances:
    def test_worked_example(self):
        assert axis_distances(B_A1, B_A2).as_tuple() == (60, 60, 10, 10)

    def test_coincident_boxes(self):
        assert axis_distances(B_A2, B_A2).as_tuple() == (0, 0, 0, 0)

    def test_per_axis_swap(self):
        # b1 narrow and tall, b2 wide and short: horizontal distances swap to
        # b2 minus b1, vertical distances keep b1 as minuend.
        b1 = BoundingBox(0, 0, 10, 100)
        b2 = BoundingBox(0, 0, 100, 10)
        assert axis_distances(b1, b2).as_tuple() == (90, 0, 90, 0)

    @given(boxes(), boxes())
    def test_symmetric_under_argument_swap(self, a, b):
        # The wider/taller minuend rule only leaves sign freedom on tied axes,
        # where both cross-axis constraints collapse to an absolute bound.
        da = axis_distances(a, b)
        db = axis_distances(b, a)
        if a.width != b.width:
            assert da.x_max_dist == db.x_max_dist
            assert da.x_min_dist == db.x_min_dist
        if a.height != b.height:
            assert da.y_max_dist == db.y_max_dist
            assert da.y_min_dist == db.y_min_dist


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
        with pytest.raises(ValueError):
            directional_distance(B_A1, B_A2, kind)
        with pytest.raises(ValueError):
            batch_check_directional([B_A1.as_tuple()], [B_A2.as_tuple()], kind, TAU3)

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
        assert axis_distances(b1, b2).as_tuple() == (10, 10, -5, -5)
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
        d = DepthMap(np.full((50, 80), 7.25))
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

    @given(boxes(), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_translation_equivariance(self, b, shift):
        rng = np.random.default_rng(7)
        base = rng.integers(0, 100, size=(64, 64)).astype(np.float64)
        box = BoundingBox(
            b.x_min % 50, b.y_min % 50, b.x_min % 50 + min(b.width, 14), b.y_min % 50 + min(b.height, 14)
        )
        d0 = average_depth(DepthMap(base), box)
        d1 = average_depth(DepthMap(base + shift), box)
        assert math.isclose(d1, d0 + shift, rel_tol=1e-12, abs_tol=1e-9)


class TestIntegerDepthMaps:
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 65535), st.integers(0, 2**32 - 1),
           st.lists(integer_boxes(grid=40), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_means_are_bit_identical_across_dtypes(self, height, width, top, seed, bs):
        grid = np.random.default_rng(seed).integers(0, top, size=(height, width), endpoint=True)
        maps = [DepthMap(grid.astype(t)) for t in (np.uint16, np.int64, np.float64)]
        assert [m.values.dtype for m in maps] == [np.uint16, np.int64, np.float64]
        for b in bs:
            if b.x_min >= width or b.y_min >= height:
                continue  # covers no pixel of this map
            means = {average_depth(m, b).hex() for m in maps}
            assert len(means) == 1

    def test_equal_values_compare_and_hash_equal(self):
        grid = np.arange(12).reshape(3, 4)
        maps = [DepthMap(grid.astype(t)) for t in (np.uint8, ">u2", np.int64, np.float64)]
        assert maps[1].values.dtype == np.uint16  # stored in native byte order
        assert all(m == maps[0] for m in maps)
        assert len({hash(m) for m in maps}) == 1
        assert DepthMap(grid) != DepthMap(grid + 1)
        assert hash(DepthMap([[-0.0, 1.0]])) == hash(DepthMap([[0, 1]]))

    def test_sums_past_2_to_53_take_the_float64_path(self):
        # max * size must stay below 2**53 for every box sum to be exact
        assert DepthMap(np.full((2, 2), 2**51 - 1)).values.dtype == np.int64
        assert DepthMap(np.full((2, 2), 2**51)).values.dtype == np.float64
        assert DepthMap([[2**60, 1]]).values.dtype == np.float64

    def test_negative_integers_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DepthMap(np.array([[3, -1]], dtype=np.int16))


class TestCheckDepthRelation:
    def test_front_worked_example(self):
        b1 = BoundingBox(50, 20, 90, 60)
        b2 = BoundingBox(40, 25, 80, 65)
        assert check_depth_relation(b1, b2, gradient_map(), TAU3) is RelationKind.FRONT
        assert check_depth_relation(b2, b1, gradient_map(), TAU3) is RelationKind.BEHIND

    def test_constant_map_ties_to_none(self):
        b1 = BoundingBox(50, 20, 90, 60)
        b2 = BoundingBox(40, 25, 80, 65)
        d = DepthMap(np.full((100, 100), 3.0))
        assert check_depth_relation(b1, b2, d, TAU3) is None

    def test_disjoint_boxes_gate_to_none(self):
        d = gradient_map()
        assert check_depth_relation(BoundingBox(0, 0, 10, 10), BoundingBox(50, 50, 90, 90), d, TAU3) is None

    @given(integer_boxes(grid=60), integer_boxes(grid=60), strictness())
    @settings(max_examples=100)
    def test_antisymmetry_on_random_maps(self, a, b, s):
        rng = np.random.default_rng(13)
        d = DepthMap(rng.integers(0, 500, size=(64, 64)).astype(np.float64))
        fwd = check_depth_relation(a, b, d, s)
        rev = check_depth_relation(b, a, d, s)
        if fwd is RelationKind.FRONT:
            assert rev is RelationKind.BEHIND
        elif fwd is RelationKind.BEHIND:
            assert rev is RelationKind.FRONT
        else:
            assert rev is None


class TestBatchAgreement:
    """The batch API must agree exactly with the scalar functions."""

    @given(st.lists(st.tuples(boxes(), boxes()), min_size=1, max_size=30), strictness())
    def test_directional_next_overlap(self, pairs, s):
        a = np.array([p[0].as_tuple() for p in pairs])
        b = np.array([p[1].as_tuple() for p in pairs])
        for loc in DIRECTIONS:
            got = batch_check_directional(a, b, loc, s)
            want = [check_directional(p, q, loc, s) for p, q in pairs]
            assert got.tolist() == want
        assert batch_check_next(a, b, s).tolist() == [check_next(p, q, s) for p, q in pairs]
        assert batch_check_depth_overlap(a, b, s).tolist() == [
            check_depth_overlap(p, q, s) for p, q in pairs
        ]

    @given(st.lists(st.tuples(boxes(), boxes(), boxes()), min_size=1, max_size=30), strictness())
    def test_between(self, triples, s):
        l = np.array([t[0].as_tuple() for t in triples])
        m = np.array([t[1].as_tuple() for t in triples])
        r = np.array([t[2].as_tuple() for t in triples])
        got = batch_check_between(l, m, r, s)
        assert got.tolist() == [check_between(a, b, c, s) for a, b, c in triples]

    @given(boxes(), boxes())
    def test_axis_distances(self, a, b):
        xs = batch_axis_distances(np.array([a.as_tuple()]), np.array([b.as_tuple()]))
        assert tuple(float(v[0]) for v in xs) == axis_distances(a, b).as_tuple()
