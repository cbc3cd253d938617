"""Scene extraction: frozen examples, the ambiguity rule, oracle agreement."""

from __future__ import annotations

from dataclasses import fields
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialbench import extraction
from spatialbench.errors import DimensionMismatch, NotInvertible
from spatialbench.extraction import (
    DetectedObject,
    ExtractionConfig,
    RelationInstance,
    Scene,
    extract_between,
    extract_pairwise,
    extract_scene,
)
from spatialbench.geometry import BoundingBox, DepthMap, _verdicts
from spatialbench.relations import KIND_ORDER, RelationKind, invert
from spatialbench.sceneio import relations_to_dict, scene_from_dict, write_depth_pgm

import naive_reference as ref


def scene_of(boxes, width=200.0, height=200.0, scores=None, depth=None, context=None):
    scores = scores or [1.0] * len(boxes)
    objs = tuple(
        DetectedObject(f"object {i}", BoundingBox(*b), s)
        for i, (b, s) in enumerate(zip(boxes, scores))
    )
    return Scene("img", width, height, objs, depth=depth, context=context)


def as_triples(relations):
    return {(r.kind.value, r.subject, r.objects) for r in relations}


EXAMPLE_A = [(60, 10, 100, 50), (0, 0, 40, 40)]


class TestConfig:
    def test_defaults(self):
        cfg = ExtractionConfig()
        assert cfg.tau == 3.0
        assert cfg.min_rel_area == 0.01
        assert cfg.max_center_dist == 0.5
        assert cfg.min_score == 0.3
        assert [f.name for f in fields(cfg)] == [
            "tau", "min_rel_area", "max_center_dist", "min_score",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractionConfig(tau=0)
        with pytest.raises(ValueError):
            ExtractionConfig(min_rel_area=0)
        with pytest.raises(ValueError):
            ExtractionConfig(max_center_dist=1.5)
        with pytest.raises(ValueError):
            ExtractionConfig(min_score=-0.1)


class TestSceneTypes:
    def test_labels_normalized(self):
        obj = DetectedObject("  Fire  Hydrant ", BoundingBox(0, 0, 10, 10))
        assert obj.label == "fire hydrant"

    def test_out_of_bounds_box_rejected(self):
        with pytest.raises(ValueError):
            scene_of([(0, 0, 300, 40)], width=200, height=200)

    def test_depth_dims_must_match(self):
        depth = DepthMap(np.zeros((50, 50)).tolist())
        with pytest.raises(DimensionMismatch):
            scene_of(EXAMPLE_A, width=200, height=200, depth=depth)

    def test_relation_instance_shape_checks(self):
        with pytest.raises(ValueError):
            RelationInstance(RelationKind.RIGHT, 0, (1, 2))
        with pytest.raises(ValueError):
            RelationInstance(RelationKind.BETWEEN, 0, (1,))
        with pytest.raises(ValueError):
            RelationInstance(RelationKind.NEXT, 1, (1,))

    def test_relation_instance_has_no_context(self):
        # the context is the scene's, held once
        assert "context" not in {f.name for f in fields(RelationInstance)}


class TestExtractPairwise:
    def test_fewer_than_two_eligible_objects(self):
        assert extract_pairwise(scene_of([])) == []
        assert extract_pairwise(scene_of(EXAMPLE_A, scores=[1.0, 0.1])) == []

    def test_worked_example_scene(self):
        relations = extract_pairwise(scene_of(EXAMPLE_A))
        assert as_triples(relations) == {
            ("right", 0, (1,)),
            ("left", 1, (0,)),
            ("next", 0, (1,)),
            ("next", 1, (0,)),
        }

    def test_output_ordering_is_canonical(self):
        relations = extract_pairwise(scene_of(EXAMPLE_A))
        assert [(r.subject, r.objects, r.kind.value) for r in relations] == [
            (0, (1,), "right"),
            (0, (1,), "next"),
            (1, (0,), "left"),
            (1, (0,), "next"),
        ]

    def test_single_object_scene(self):
        assert extract_pairwise(scene_of([(0, 0, 40, 40)])) == []

    def test_depth_pair_emits_front_and_behind(self):
        depth = DepthMap(np.tile(np.arange(100, dtype=np.float64), (100, 1)).tolist())
        scene = scene_of(
            [(50, 20, 90, 60), (40, 25, 80, 65)], width=100, height=100, depth=depth
        )
        assert as_triples(extract_pairwise(scene)) == {
            ("front", 0, (1,)),
            ("behind", 1, (0,)),
        }

    def test_score_filter_drops_weak_detections(self):
        scene = scene_of(EXAMPLE_A, scores=[1.0, 0.2])
        assert extract_pairwise(scene) == []

    def test_area_filter_drops_tiny_detections(self):
        boxes = [(60, 10, 100, 50), (0, 0, 4, 4)]  # 16 px against a 400 px floor
        assert extract_pairwise(scene_of(boxes)) == []

    def test_proximity_gate_drops_far_pairs(self):
        boxes = [(0, 0, 100, 100), (900, 0, 1000, 100)]
        scene = scene_of(boxes, width=1000, height=1000)
        assert extract_pairwise(scene) == []
        near = ExtractionConfig(max_center_dist=0.7)
        assert as_triples(extract_pairwise(scene, near)) == {
            ("right", 1, (0,)),
            ("left", 0, (1,)),
            ("next", 0, (1,)),
            ("next", 1, (0,)),
        }

    def test_context_is_attached(self):
        # the scene holds its context once; each output fact repeats it
        scene = scene_of(EXAMPLE_A, context="Downtown  Area")
        relations = relations_to_dict(scene, extract_pairwise(scene))["relations"]
        assert relations and {r["context"] for r in relations} == {"downtown area"}


class TestAmbiguityPolicy:
    # At tau=1.2 a diagonal overlap satisfies one horizontal and one vertical
    # direction at once; at tau >= 2 the constraints make that impossible.
    # Such a pair emits no directional relation, but still emits Next.
    BOXES = [(0, 0, 30, 30), (15, 15, 45, 45)]

    def test_drop_pair_suppresses_directional_hits(self):
        cfg = ExtractionConfig(tau=1.2)
        scene = scene_of(self.BOXES, width=100, height=100)
        got = as_triples(extract_pairwise(scene, cfg))
        assert got == {("next", 0, (1,)), ("next", 1, (0,))}

    def test_no_mixed_axis_pair_survives_drop_pair(self):
        cfg = ExtractionConfig(tau=1.2)
        scene = scene_of(self.BOXES, width=100, height=100)
        by_pair = {}
        for r in extract_pairwise(scene, cfg):
            if r.kind.is_directional_2d:
                by_pair.setdefault((r.subject, r.objects), set()).add(r.kind)
        horizontal = {RelationKind.RIGHT, RelationKind.LEFT}
        for kinds in by_pair.values():
            assert not (kinds & horizontal and kinds - horizontal)


class TestExtractBetween:
    ALIGNED = [(0, 0, 20, 40), (30, 0, 50, 40), (60, 0, 80, 40)]

    def test_three_aligned_boxes(self):
        scene = scene_of(self.ALIGNED, width=100, height=100)
        assert as_triples(extract_between(scene)) == {("between", 1, (0, 2))}

    def test_two_object_scene(self):
        assert extract_between(scene_of(EXAMPLE_A)) == []

    def test_three_coincident_boxes(self):
        scene = scene_of([(0, 0, 40, 40)] * 3, width=100, height=100)
        assert extract_between(scene) == []

    # 101 boxes of 8x10 in one row, 2px apart: each is left of every box
    # further right, so every ordered (left, middle, right) triple is between
    ROW = [(10 * i, 0, 10 * i + 8, 10) for i in range(101)]

    def test_row_of_101_gives_every_triple(self):
        # each box is 0.8% of the image, so the area floor is lowered to let
        # all 101 in; there is no cap on the number of eligible objects
        scene = scene_of(self.ROW, width=1010, height=10)
        out = extract_between(scene, ExtractionConfig(min_rel_area=0.001))
        assert len(out) == comb(101, 3) == 166_650
        assert all(r.objects[0] < r.subject < r.objects[1] for r in out)

    def test_ineligible_detections_never_flank(self):
        # 101 detections but only three pass the score floor
        scores = [0.1] * 101
        scores[0] = scores[50] = scores[100] = 1.0
        scene = scene_of(self.ROW, width=1010, height=10, scores=scores)
        out = extract_between(scene, ExtractionConfig(min_rel_area=0.001))
        assert as_triples(out) == {("between", 50, (0, 100))}


class TestExtractScene:
    def test_merges_pairwise_and_between(self):
        scene = scene_of(TestExtractBetween.ALIGNED, width=100, height=100)
        merged = as_triples(extract_scene(scene))
        assert ("between", 1, (0, 2)) in merged
        assert ("right", 1, (0,)) in merged
        assert ("next", 1, (0,)) in merged


class TestInvertRelation:
    def test_directional_inversion(self):
        r = RelationInstance(RelationKind.RIGHT, 0, (1,))
        assert invert(r) == RelationInstance(RelationKind.LEFT, 1, (0,))

    def test_next_is_self_inverse_kind(self):
        r = RelationInstance(RelationKind.NEXT, 2, (5,))
        assert invert(r) == RelationInstance(RelationKind.NEXT, 5, (2,))

    def test_involution(self):
        for kind in (RelationKind.RIGHT, RelationKind.TOP, RelationKind.FRONT, RelationKind.NEXT):
            r = RelationInstance(kind, 3, (4,))
            assert invert(invert(r)) == r

    def test_between_not_invertible(self):
        with pytest.raises(NotInvertible):
            invert(RelationInstance(RelationKind.BETWEEN, 1, (0, 2)))


class TestProximityFilter:
    """The center-distance gate of extract_pairwise: <= max_center_dist x diagonal."""

    def test_far_corner_boxes(self):
        scene = scene_of([(0, 0, 100, 100), (900, 900, 1000, 1000)], 1000, 1000)
        # centers 1272.8 apart: inside the gate at 1.0 x 1414.2, outside at 0.5
        wide = ExtractionConfig(tau=0.1, max_center_dist=1.0)
        assert as_triples(extract_pairwise(scene, wide)) == {
            ("next", 0, (1,)), ("next", 1, (0,)),
        }
        assert extract_pairwise(scene, ExtractionConfig(tau=0.1)) == []

    def test_adjacent_boxes(self):
        depth = DepthMap([list(range(100))] * 100)
        scene = scene_of([(0, 0, 10, 10), (3, 0, 13, 10)], 100, 100, depth=depth)
        assert as_triples(extract_pairwise(scene)) == {
            ("behind", 0, (1,)), ("front", 1, (0,)),
        }

    def test_identical_centers(self):
        depth = DepthMap([[x * x for x in range(100)]] * 100)
        scene = scene_of([(10, 10, 50, 50), (20, 20, 40, 40)], 100, 100, depth=depth)
        assert as_triples(extract_pairwise(scene, ExtractionConfig(tau=1))) == {
            ("front", 0, (1,)), ("behind", 1, (0,)),
        }

    def test_gate_includes_its_boundary(self):
        # diagonal 500, so the gate is 250: centers exactly 250 apart pass, 251 do not
        near = scene_of([(0, 0, 100, 100), (250, 0, 350, 100)], 400, 300)
        assert as_triples(extract_pairwise(near)) == {
            ("left", 0, (1,)), ("next", 0, (1,)), ("right", 1, (0,)), ("next", 1, (0,)),
        }
        far = scene_of([(0, 0, 100, 100), (251, 0, 351, 100)], 400, 300)
        assert extract_pairwise(far) == []


# ---------------------------------------------------------------------------
# randomized oracle agreement

_GRID_BOX = st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
    lambda xy: st.tuples(
        st.integers(1, 8 - xy[0] if xy[0] < 8 else 1),
        st.integers(1, 8 - xy[1] if xy[1] < 8 else 1),
    ).map(lambda wh: (float(xy[0]), float(xy[1]), float(xy[0] + wh[0]), float(xy[1] + wh[1])))
)


def _to_ref_scene(scene: Scene):
    rows = scene.depth.values if scene.depth is not None else None
    return {
        "width": scene.width,
        "height": scene.height,
        "objects": [(o.box.as_tuple(), o.score) for o in scene.objects],
        "depth": rows,
    }


@st.composite
def random_scenes(draw, max_objects=5):
    n = draw(st.integers(1, max_objects))
    boxes = []
    for _ in range(n):
        # about one box in four repeats an earlier one
        if boxes and draw(st.integers(0, 3)) == 0:
            boxes.append(draw(st.sampled_from(boxes)))
        else:
            boxes.append(draw(_GRID_BOX))
    scores = [draw(st.sampled_from([0.1, 0.4, 1.0])) for _ in range(n)]
    with_depth = draw(st.booleans())
    depth = None
    if with_depth:
        seed = draw(st.integers(0, 2**16))
        levels = draw(st.sampled_from([2, 64]))  # two levels make tied means common
        rng = np.random.default_rng(seed)
        depth = DepthMap(rng.integers(0, levels, size=(8, 8)).astype(np.float64).tolist())
    return scene_of(boxes, width=8, height=8, scores=scores, depth=depth)


def _assert_matches_oracle(scene, cfg):
    got = extract_scene(scene, cfg)
    want = ref.naive_extract(
        _to_ref_scene(scene),
        tau=cfg.tau,
        min_rel_area=cfg.min_rel_area,
        max_center_dist=cfg.max_center_dist,
        min_score=cfg.min_score,
    )
    assert len(got) == len(want)
    assert as_triples(got) == want


@given(
    random_scenes(max_objects=30),
    # below tau=1 a box can sit left and right of itself, or of one other box
    st.sampled_from([2.0, 3.0, 5.0, 1.2, 0.7]),
)
@settings(max_examples=300, deadline=None)
def test_matches_naive_extraction_oracle(scene, tau):
    cfg = ExtractionConfig(tau=tau, min_rel_area=0.01, min_score=0.3)
    _assert_matches_oracle(scene, cfg)


def test_dense_scene_with_depth_matches_oracle():
    # 64 boxes of at least 8x8 px on a 64x64 canvas all clear the 41 px area
    # floor; a few repeat, and a 4-level depth map ties some means exactly.
    rng = np.random.default_rng(2024)
    boxes = []
    for _ in range(64):
        if boxes and rng.random() < 0.1:
            boxes.append(boxes[int(rng.integers(len(boxes)))])
            continue
        w, h = (int(v) for v in rng.integers(8, 25, size=2))
        x, y = int(rng.integers(0, 65 - w)), int(rng.integers(0, 65 - h))
        boxes.append((x, y, x + w, y + h))
    depth = DepthMap(rng.integers(0, 4, size=(64, 64)).astype(np.float64).tolist())
    scene = scene_of(boxes, width=64, height=64, depth=depth)
    cfg = ExtractionConfig()
    assert {r.kind for r in extract_scene(scene, cfg)} == set(RelationKind)
    _assert_matches_oracle(scene, cfg)


def test_exhaustive_two_object_scenes_match_oracle():
    # Every ordered pair of integer boxes on a 4x4 canvas, tau=3. Oracle and
    # implementation must produce identical relation sets, proximity included.
    spans = [(lo, hi) for lo in range(5) for hi in range(lo + 1, 5)]
    grid = [(float(x0), float(y0), float(x1), float(y1)) for x0, x1 in spans for y0, y1 in spans]
    cfg = ExtractionConfig(min_rel_area=0.001)
    for b1 in grid:
        for b2 in grid:
            scene = scene_of([b1, b2], width=4, height=4)
            got = as_triples(extract_scene(scene, cfg))
            want = ref.naive_extract(
                _to_ref_scene(scene), tau=3.0, min_rel_area=0.001
            )
            assert got == want, (b1, b2)


@given(random_scenes())
@settings(max_examples=200, deadline=None)
def test_closure_under_inversion(scene):
    relations = extract_pairwise(scene)
    emitted = set(relations)
    for r in relations:
        assert invert(r) in emitted


@given(random_scenes(), st.sampled_from([2.0, 3.0, 5.0]))
@settings(max_examples=100, deadline=None)
def test_determinism(scene, tau):
    cfg = ExtractionConfig(tau=tau)
    assert extract_scene(scene, cfg) == extract_scene(scene, cfg)


# ---------------------------------------------------------------------------
# one verdict table per scene

LABELS = ("car", "bus", "lamp")


@st.composite
def labeled_scenes(draw, max_objects=9):
    """Scenes of boxes on an 8x8 canvas whose labels repeat, with a 16-bit PGM depth plane."""
    n = draw(st.integers(1, max_objects))
    boxes = []
    for _ in range(n):
        if boxes and draw(st.integers(0, 3)) == 0:
            boxes.append(draw(st.sampled_from(boxes)))
        else:
            boxes.append(draw(_GRID_BOX))
    objects = [{"label": draw(st.sampled_from(LABELS)), "box": list(box),
                "score": draw(st.sampled_from([0.1, 0.4, 1.0]))} for box in boxes]
    levels = draw(st.sampled_from([2, 64, 65536]))
    rows = [[draw(st.integers(0, levels - 1)) for _ in range(8)] for _ in range(8)]
    return objects, rows


def canonical_order(rel: RelationInstance) -> tuple:
    """The full canonical key of an extracted relation: subject, objects, then kind order."""
    return (rel.subject, rel.objects, KIND_ORDER[rel.kind])


@given(labeled_scenes(), st.sampled_from([2.0, 3.0, 1.2, 0.7]))
@settings(max_examples=150, deadline=None)
def test_scenes_with_repeated_labels_and_pgm_depth_match_oracle(tmp_path_factory, drawn, tau):
    objects, rows = drawn
    folder = tmp_path_factory.mktemp("pgm")
    write_depth_pgm(folder / "d.pgm", DepthMap(rows))
    scene = scene_from_dict({"image_id": "img", "width": 8, "height": 8, "objects": objects,
                             "depth": "d.pgm"}, base_dir=folder)
    cfg = ExtractionConfig(tau=tau)
    got = extract_scene(scene, cfg)
    want = ref.naive_extract(
        {"width": 8, "height": 8, "depth": rows,
         "objects": [(tuple(o["box"]), o["score"]) for o in objects]}, tau=tau)
    assert len(got) == len(want) and as_triples(got) == want
    assert got == sorted(got, key=canonical_order)


class TestOneTablePerScene:
    # the middle box sits 10 px low: aligned with its flanks at tau 3, not at tau 10
    BOXES = [(0, 0, 20, 40), (30, 10, 50, 50), (60, 0, 80, 40), (30, 60, 50, 100)]
    SCENE = scene_of(BOXES, width=100, height=100)
    CONFIGS = (ExtractionConfig(), ExtractionConfig(tau=10.0))

    def test_alone_in_either_order_and_across_configs(self):
        for cfg in self.CONFIGS:
            alone = [extract_pairwise(self.SCENE, cfg), extract_between(self.SCENE, cfg)]
            # each call that follows another reads that call's table
            assert extract_between(self.SCENE, cfg) == alone[1]
            assert extract_pairwise(self.SCENE, cfg) == alone[0]
            assert extract_scene(self.SCENE, cfg) == sorted(
                alone[0] + alone[1], key=canonical_order)
        results = {cfg: (extract_pairwise(self.SCENE, cfg), extract_between(self.SCENE, cfg))
                   for cfg in self.CONFIGS}
        strict = results[self.CONFIGS[1]]
        assert results[self.CONFIGS[0]][1] == [RelationInstance(RelationKind.BETWEEN, 1, (0, 2))]
        assert strict[1] == [] and strict[0] != results[self.CONFIGS[0]][0]
        # two configs in turn on one scene: no call reads the other config's table
        for cfg in self.CONFIGS * 2:
            assert extract_between(self.SCENE, cfg) == results[cfg][1]
            assert extract_pairwise(self.SCENE, cfg) == results[cfg][0]

    def test_an_equal_scene_gets_its_own_table(self):
        cfg = self.CONFIGS[0]
        first = extract_scene(self.SCENE, cfg)
        other = scene_of([(0, 0, 20, 40), (30, 0, 50, 40)], width=100, height=100)
        assert extract_scene(other, cfg) == extract_pairwise(other, cfg) != first
        assert extract_scene(scene_of(self.BOXES, width=100, height=100), cfg) == first

    def test_kernel_runs_once_per_ordered_eligible_pair(self, monkeypatch):
        calls = []

        def counted(p, q, tau):
            calls.append((p, q))
            return _verdicts(p, q, tau)

        monkeypatch.setattr(extraction, "_verdicts", counted)
        # 12 detections, 2 below the score floor; all pairs pass the proximity gate
        boxes = [(10 * i, 10 * (i % 3), 10 * i + 8, 10 * (i % 3) + 8) for i in range(12)]
        scores = [1.0] * 10 + [0.1] * 2
        scene = scene_of(boxes, width=120, height=40, scores=scores)
        cfg = ExtractionConfig(min_rel_area=0.001, max_center_dist=1.0)
        relations = extract_scene(scene, cfg)
        assert {r.kind for r in relations} >= {RelationKind.RIGHT, RelationKind.BETWEEN}
        assert len(calls) == len(set(calls)) == 10 * 9
        extract_between(scene, cfg)
        extract_pairwise(scene, cfg)
        assert len(calls) == 90
