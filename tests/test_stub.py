"""Synthetic scene generator: soundness, determinism, binomial behavior."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialbench.errors import SpatialBenchError
from spatialbench.evaluation import evaluate_records, score_clause, score_record
from spatialbench.extraction import ExtractionConfig, extract_scene
from spatialbench.prompts import PromptSpec, RelationQuadruple, parse_prompt, sample_prompt_set
from spatialbench.relations import RelationKind, Strictness
from spatialbench.stub import StubGeneratorConfig, StubPlan, stub_generate

from strategies import OBJECTS, prompt_specs

ALL_KINDS = list(RelationKind)


def spec_for(kind: RelationKind) -> PromptSpec:
    objects = ("tree", "lamp") if kind is RelationKind.BETWEEN else ("tree",)
    return PromptSpec((RelationQuadruple("bench", kind, objects),), "city")


def all_probabilities(p: float) -> dict:
    return {kind: p for kind in ALL_KINDS}


class TestSoundness:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_satisfy_template(self, kind):
        cfg = StubGeneratorConfig(all_probabilities(1.0))
        records, plans = stub_generate([spec_for(kind)], cfg)
        assert plans == [StubPlan("stub-000000", (True,))]
        verdict = score_clause(records[0].prompt.clauses[0], records[0].scene,
                               Strictness(cfg.tau))
        assert verdict.satisfied

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_violate_template(self, kind):
        cfg = StubGeneratorConfig(all_probabilities(0.0))
        records, plans = stub_generate([spec_for(kind)], cfg)
        assert plans == [StubPlan("stub-000000", (False,))]
        verdict = score_clause(records[0].prompt.clauses[0], records[0].scene,
                               Strictness(cfg.tau))
        assert not verdict.satisfied

    @pytest.mark.parametrize("tau", [2.0, 3.0, 5.0])
    def test_templates_hold_across_tau(self, tau):
        # single-clause zones are large enough for tau up to 5 by default
        for want, p in ((True, 1.0), (False, 0.0)):
            cfg = StubGeneratorConfig(all_probabilities(p), tau=tau)
            _, plans = stub_generate([spec_for(k) for k in ALL_KINDS], cfg)
            assert all(plan.verdicts == (want,) for plan in plans)

    def test_identical_labels(self):
        clauses = [
            RelationQuadruple("bench", RelationKind.NEXT, ("bench",)),
            RelationQuadruple("bench", RelationKind.BETWEEN, ("bench", "bench")),
            RelationQuadruple("bench", RelationKind.FRONT, ("bench",)),
        ]
        for p, want in ((1.0, True), (0.0, False)):
            cfg = StubGeneratorConfig(all_probabilities(p))
            _, plans = stub_generate([PromptSpec((c,), "city") for c in clauses], cfg)
            assert all(plan.verdicts == (want,) for plan in plans)


class TestScenes:
    def test_depth_only_for_3d_clauses(self):
        records, _ = stub_generate([
            spec_for(RelationKind.RIGHT),
            spec_for(RelationKind.BEHIND),
        ])
        assert records[0].scene.depth is None
        depth = records[1].scene.depth
        assert depth is not None and depth.width == 128 and depth.height == 128
        assert all(type(v) is int for row in depth.values for v in row)

    def test_3d_scenes_share_one_depth_map(self):
        records, _ = stub_generate([spec_for(RelationKind.FRONT), spec_for(RelationKind.TOP),
                                    spec_for(RelationKind.BEHIND)])
        first, _, last = (r.scene.depth for r in records)
        assert first is last
        assert first.values == [list(range(128))] * 128

    def test_context_and_ids(self):
        records, plans = stub_generate([spec_for(RelationKind.TOP)] * 3)
        assert [r.record_id for r in records] == ["stub-000000", "stub-000001", "stub-000002"]
        assert [p.record_id for p in plans] == [r.record_id for r in records]
        assert all(r.scene.context == "city" for r in records)
        assert all(r.scene.image_id == r.record_id for r in records)

    def test_complex_prompt_gets_two_zones(self):
        text = "A bench to the right of a tree, a lamp on top of the tree in a city"
        records, plans = stub_generate([parse_prompt(text)])
        assert plans[0].verdicts == (True, True)
        assert len(records[0].scene.objects) == 4

    def test_custom_dimensions(self):
        cfg = StubGeneratorConfig(width=256, height=64)
        records, _ = stub_generate([spec_for(RelationKind.LEFT)], cfg)
        assert records[0].scene.width == 256 and records[0].scene.height == 64


class TestConfig:
    def test_defaults(self):
        cfg = StubGeneratorConfig()
        assert cfg.width == 128 and cfg.height == 128
        assert cfg.seed == 0 and cfg.tau == 3.0
        assert cfg.probability(RelationKind.RIGHT) == 1.0

    def test_string_kind_keys(self):
        cfg = StubGeneratorConfig({"top": 0.8})
        assert cfg.probability(RelationKind.TOP) == 0.8

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            StubGeneratorConfig({"top": 1.2})

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            StubGeneratorConfig(tau=0.5)

    @pytest.mark.parametrize("size", [
        {"width": 0}, {"height": 65536}, {"width": 10 ** 400}, {"width": 65535, "height": 257},
    ], ids=["zero", "side", "401-digits", "cells"])
    def test_scene_size_bounded(self, size):
        # the config is checked before any plane is built
        with pytest.raises(ValueError, match="scene dimensions"):
            StubGeneratorConfig(**size)

    def test_largest_scene_accepted(self):
        cfg = StubGeneratorConfig(width=65535, height=256)
        assert cfg.width * cfg.height <= 2 ** 24

    def test_scene_too_small_for_tau(self):
        cfg = StubGeneratorConfig(width=20, height=20)
        with pytest.raises(SpatialBenchError, match="too small"):
            stub_generate([spec_for(RelationKind.RIGHT)], cfg)


class TestRandomness:
    def test_deterministic(self):
        cfg = StubGeneratorConfig(all_probabilities(0.5), seed=11)
        prompts = [spec_for(RelationKind.RIGHT)] * 50
        assert stub_generate(prompts, cfg) == stub_generate(prompts, cfg)

    def test_seed_changes_draws(self):
        prompts = [spec_for(RelationKind.RIGHT)] * 50
        a = stub_generate(prompts, StubGeneratorConfig(all_probabilities(0.5), seed=0))[1]
        b = stub_generate(prompts, StubGeneratorConfig(all_probabilities(0.5), seed=1))[1]
        assert a != b

    def test_binomial_rate(self):
        cfg = StubGeneratorConfig({RelationKind.RIGHT: 0.7}, seed=5)
        prompts = [spec_for(RelationKind.RIGHT)] * 1000
        records, plans = stub_generate(prompts, cfg)
        rate = sum(plan.verdicts[0] for plan in plans) / len(plans)
        assert abs(rate - 0.7) < 0.06
        assert abs(evaluate_records(records).soft[RelationKind.RIGHT.value] - rate) < 1e-12

    def test_per_kind_rates_independent(self):
        cfg = StubGeneratorConfig({"top": 1.0, "bottom": 0.0}, seed=2)
        prompts = [spec_for(RelationKind.TOP), spec_for(RelationKind.BOTTOM)] * 20
        _, plans = stub_generate(prompts, cfg)
        assert all(p.verdicts == (True,) for p in plans[0::2])
        assert all(p.verdicts == (False,) for p in plans[1::2])


@given(prompt_specs(), st.sampled_from([0.0, 1.0]))
@settings(max_examples=200, deadline=None)
def test_extreme_probabilities_force_verdicts(spec, p):
    cfg = StubGeneratorConfig(all_probabilities(p))
    _, plans = stub_generate([spec], cfg)
    assert plans[0].verdicts == tuple(p == 1.0 for _ in spec.clauses)


def small_pool(n_objects: int) -> list[RelationQuadruple]:
    """Every fact of every kind over the first n_objects objects, subject apart from object."""
    objects = OBJECTS[:n_objects]
    return [RelationQuadruple(a, kind, (b, c) if kind is RelationKind.BETWEEN else (b,))
            for kind in ALL_KINDS for a in objects for b in objects for c in objects
            if a != b and (kind is RelationKind.BETWEEN or b == c)]


@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sampled_complex_prompts_are_satisfiable(n_objects, seed):
    # a small lexicon makes every pairwise first clause meet its converse in
    # the pool, which the sampler must never chain onto it
    specs = sample_prompt_set(small_pool(n_objects), {}, {kind: 2 for kind in ALL_KINDS},
                              seed=seed)
    assert all(spec.is_complex for spec in specs)
    records, plans = stub_generate(specs, StubGeneratorConfig(all_probabilities(1.0)))
    for record, plan in zip(records, plans):
        assert plan.verdicts == (True, True), record.prompt
        assert all(v.satisfied for v in score_record(record))


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.dictionaries(st.sampled_from(ALL_KINDS), st.floats(0.0, 1.0)))
@settings(max_examples=25, deadline=None)
def test_extraction_agrees_with_scoring_on_stub_scenes(sample_seed, stub_seed, probabilities):
    # a clause holds exactly when extraction emits a fact with its labels and
    # kind; the stub's boxes are under the default area gate, hence 0.001
    specs = sample_prompt_set(small_pool(5), {kind: 2 for kind in ALL_KINDS},
                              {kind: 1 for kind in ALL_KINDS}, seed=sample_seed)
    records, _ = stub_generate(specs, StubGeneratorConfig(probabilities, seed=stub_seed))
    cfg = ExtractionConfig(min_rel_area=0.001)
    for record in records:
        labels = [obj.label for obj in record.scene.objects]
        facts = {(f.kind, labels[f.subject], tuple(labels[i] for i in f.objects))
                 for f in extract_scene(record.scene, cfg)}
        for clause, verdict in zip(record.prompt.clauses, score_record(record)):
            keys = {(clause.kind, clause.subject, clause.objects),
                    (clause.kind, clause.subject, clause.objects[::-1])}
            assert bool(keys & facts) == verdict.satisfied, (record.prompt, clause)
