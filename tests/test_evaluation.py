"""Clause scoring and benchmark aggregation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from spatialbench.errors import NoSamples
from spatialbench.evaluation import (
    BenchReport,
    ClauseVerdict,
    EvalRecord,
    evaluate_records,
    score_clause,
    score_record,
)
from spatialbench.extraction import DetectedObject, Scene
from spatialbench.geometry import BoundingBox, DepthMap, check_between
from spatialbench.prompts import PromptSpec, RelationQuadruple
from spatialbench.relations import RelationKind, Strictness


def quad(subject, kind, objects):
    if isinstance(objects, str):
        objects = (objects,)
    return RelationQuadruple(subject, kind, objects)


def make_scene(entries, width=200.0, height=200.0, depth=None, image_id="img"):
    objs = tuple(
        DetectedObject(label, BoundingBox(*box)) for label, box in entries
    )
    return Scene(image_id, width, height, objs, depth=depth)


def record(rid, clauses, scene):
    return EvalRecord(rid, PromptSpec(tuple(clauses), "city"), scene)


# boxes a strict gap apart along one axis, exactly aligned on the other
RIGHT_OK = [("b", (0, 0, 30, 30)), ("a", (31, 0, 61, 30))]
RIGHT_BAD = [("b", (0, 0, 30, 30)), ("a", (0, 31, 30, 61))]  # a below b


class TestScoreClause:
    def test_directional_satisfied(self):
        verdict = score_clause(quad("a", "right", "b"), make_scene(RIGHT_OK))
        assert verdict.satisfied
        assert verdict.witness == (1, 0)

    def test_directional_unsatisfied(self):
        verdict = score_clause(quad("a", "right", "b"), make_scene(RIGHT_BAD))
        assert not verdict.satisfied
        assert verdict.witness is None

    def test_missing_label_unsatisfied(self):
        verdict = score_clause(quad("bench", "right", "b"), make_scene(RIGHT_OK))
        assert not verdict.satisfied

    def test_any_pair_suffices_with_duplicates(self):
        # first a-instance is below b (fails), second is right of b (passes)
        scene = make_scene(
            [("b", (0, 0, 30, 30)), ("a", (0, 31, 30, 61)), ("a", (31, 0, 61, 30))]
        )
        verdict = score_clause(quad("a", "right", "b"), scene)
        assert verdict.satisfied
        assert verdict.witness == (2, 0)

    def test_same_label_needs_distinct_instances(self):
        scene = make_scene([("a", (0, 0, 30, 30))])
        assert not score_clause(quad("a", "next", "a"), scene).satisfied
        two = make_scene([("a", (0, 0, 30, 30)), ("a", (31, 0, 61, 30))])
        assert score_clause(quad("a", "next", "a"), two).satisfied

    def test_extraction_filters_do_not_apply(self):
        # far apart and low detection score: extraction would drop the pair,
        # but clause scoring only asks the geometry
        scene = Scene(
            "img",
            1000,
            1000,
            (
                DetectedObject("b", BoundingBox(0, 0, 100, 100), 0.1),
                DetectedObject("a", BoundingBox(900, 0, 1000, 100), 0.1),
            ),
        )
        assert score_clause(quad("a", "right", "b"), scene).satisfied

    def test_between_side_agnostic(self):
        scene = make_scene(
            [("p", (0, 0, 20, 40)), ("m", (30, 0, 50, 40)), ("q", (60, 0, 80, 40))],
            width=100,
            height=100,
        )
        # p left / q right: stated order passes outright
        assert score_clause(quad("m", "between", ("p", "q")), scene).satisfied
        # reversed statement passes via the swapped assignment
        verdict = score_clause(quad("m", "between", ("q", "p")), scene)
        assert verdict.satisfied
        assert verdict.witness == (1, 2, 0)

    @pytest.mark.parametrize("tau", [0.5, 0.9, 1, 3])
    def test_between_needs_two_flanker_instances(self, tau):
        # below tau 1 a car inside a slightly wider dog is between that dog and itself
        dog, car = BoundingBox(0, 0, 12, 10), BoundingBox(1, 0, 11, 10)
        s = Strictness(tau)
        assert check_between(dog, car, dog, s) is (tau < 1)
        scene = make_scene([("dog", dog.as_tuple()), ("car", car.as_tuple())], 20, 20)
        verdict = score_clause(quad("car", "between", ("dog", "dog")), scene, s)
        assert verdict == ClauseVerdict(False)

    def test_depth_clause_without_map_unsatisfied(self):
        scene = make_scene([("a", (50, 20, 90, 60)), ("b", (40, 25, 80, 65))], 100, 100)
        assert not score_clause(quad("a", "front", "b"), scene).satisfied

    def test_depth_clauses(self):
        depth = DepthMap(np.tile(np.arange(100, dtype=np.float64), (100, 1)).tolist())
        scene = make_scene(
            [("a", (50, 20, 90, 60)), ("b", (40, 25, 80, 65))], 100, 100, depth=depth
        )
        assert score_clause(quad("a", "front", "b"), scene).satisfied
        assert not score_clause(quad("a", "behind", "b"), scene).satisfied
        assert score_clause(quad("b", "behind", "a"), scene).satisfied

    def test_tau_affects_verdict(self):
        # 10px misalignment on the cross axis: passes tau=2 (15px budget),
        # fails tau=3 (10px budget, strict inequality)
        scene = make_scene([("b", (0, 0, 30, 30)), ("a", (31, 10, 61, 40))])
        loose = score_clause(quad("a", "right", "b"), scene, Strictness(2.0))
        tight = score_clause(quad("a", "right", "b"), scene, Strictness(3.0))
        assert loose.satisfied
        assert not tight.satisfied

    def test_verdict_shape_checked(self):
        with pytest.raises(ValueError):
            ClauseVerdict(True, None)
        with pytest.raises(ValueError):
            ClauseVerdict(False, (1, 2))


def pattern_records():
    """Three records with verdicts Right(P1)=1, (Right,Top)(P2)=(1,0), (P3)=(0,1)."""
    p1 = record("p1", [quad("a", "right", "b")], make_scene(RIGHT_OK))
    scene2 = make_scene(
        [("b", (0, 40, 30, 70)), ("a", (31, 40, 61, 70)), ("c", (0, 71, 30, 101))]
    )
    p2 = record("p2", [quad("a", "right", "b"), quad("c", "top", "b")], scene2)
    scene3 = make_scene(
        [("b", (0, 40, 30, 70)), ("a", (0, 71, 30, 101)), ("c", (0, 9, 30, 39))]
    )
    p3 = record("p3", [quad("a", "right", "b"), quad("c", "top", "b")], scene3)
    return [p1, p2, p3]


class TestAccuracies:
    def test_pattern_soft(self):
        report = evaluate_records(pattern_records())
        assert report.soft[RelationKind.RIGHT.value] == pytest.approx(2 / 3)
        assert report.soft[RelationKind.TOP.value] == pytest.approx(1 / 2)

    def test_pattern_strict(self):
        assert evaluate_records(pattern_records()).strict == pytest.approx(1 / 3)

    def test_no_samples(self):
        assert RelationKind.BETWEEN.value not in evaluate_records(pattern_records()).soft
        with pytest.raises(NoSamples):
            evaluate_records([])

    def test_any_iterable(self):
        want = evaluate_records(pattern_records(), seed=4)
        assert evaluate_records((r for r in pattern_records()), seed=4) == want
        with pytest.raises(NoSamples):
            evaluate_records(r for r in [])

    def test_all_satisfied(self):
        records = [record("r", [quad("a", "right", "b")], make_scene(RIGHT_OK))]
        report = evaluate_records(records)
        assert report.soft[RelationKind.RIGHT.value] == 1.0
        assert report.strict == 1.0

    def test_simple_only_strict_equals_soft(self):
        records = [
            record("r1", [quad("a", "right", "b")], make_scene(RIGHT_OK)),
            record("r2", [quad("a", "right", "b")], make_scene(RIGHT_BAD)),
        ]
        report = evaluate_records(records)
        assert report.strict == report.soft[RelationKind.RIGHT.value]


LEFT_OK = [("a", (0, 0, 30, 30)), ("b", (31, 0, 61, 30))]


class TestBiasTable:
    def test_subset_averaging_and_fallback(self):
        simple_right = record("r1", [quad("a", "right", "b")], make_scene(RIGHT_OK))
        scene = make_scene(
            [("b", (0, 40, 30, 70)), ("a", (0, 71, 30, 101)), ("c", (0, 9, 30, 39))]
        )
        complex_right = record(
            "r2", [quad("a", "right", "b"), quad("c", "top", "b")], scene
        )
        simple_left = record("r3", [quad("a", "left", "b")], make_scene(LEFT_OK))
        table = evaluate_records([simple_right, complex_right, simple_left]).bias
        # right: simple 1.0 and complex 0.0 averaged; left: simple subset only
        assert table == {"left_right": {"left": 1.0, "right": 0.5}}

    def test_pair_requires_both_sides(self):
        records = [record("r", [quad("a", "top", "b")], make_scene(RIGHT_OK))]
        assert evaluate_records(records).bias == {}

    def test_missing_relation_for_unpaired_kinds(self):
        records = [record("r", [quad("a", "next", "b")], make_scene(RIGHT_OK))]
        assert evaluate_records(records).bias == {}

    def test_symmetric_records_give_equal_sides(self):
        records = [
            record("r1", [quad("a", "right", "b")], make_scene(RIGHT_OK)),
            record("r2", [quad("b", "left", "a")], make_scene(RIGHT_OK)),
        ]
        table = evaluate_records(records).bias
        assert table["left_right"]["left"] == table["left_right"]["right"] == 1.0


class TestReport:
    def test_evaluate_records_report(self):
        report = evaluate_records(pattern_records(), seed=7)
        assert report.soft == {"right": pytest.approx(2 / 3), "top": 0.5}
        assert report.strict == pytest.approx(1 / 3)
        assert report.counts == {"right": 3, "top": 2}
        assert report.bias == {}  # no pair covered on both sides
        assert report.config == {"tau": 3.0, "seed": 7}

    def test_json_deterministic_and_round_trips(self):
        a = evaluate_records(pattern_records(), seed=1)
        b = evaluate_records(pattern_records(), seed=1)
        assert a.to_json() == b.to_json()
        assert json.loads(a.to_json()) == {
            "soft_accuracy": a.soft, "strict_accuracy": a.strict,
            "sample_counts": a.counts, "bias": a.bias, "config": a.config,
        }

    def test_text_rendering(self):
        text = evaluate_records(pattern_records()).to_text()
        assert text.splitlines()[0].startswith("relation")
        assert "strict accuracy: 0.333" in text
        assert "right" in text and "top" in text

    def test_text_includes_bias_section(self):
        records = [
            record("r1", [quad("a", "right", "b")], make_scene(RIGHT_OK)),
            record("r2", [quad("b", "left", "a")], make_scene(RIGHT_OK)),
        ]
        text = evaluate_records(records).to_text()
        assert "left_right" in text

    def test_accuracy_bounds_validated(self):
        with pytest.raises(ValueError):
            BenchReport(soft={"right": 1.5}, strict=0.0, counts={}, bias={})

    def test_score_record_orders_verdicts(self):
        rec = pattern_records()[2]
        verdicts = score_record(rec)
        assert [v.satisfied for v in verdicts] == [False, True]
        assert [v.satisfied for v in verdicts] == [False, True]
