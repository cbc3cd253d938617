"""Opposite-side rewriting: flipping, profiles, prompt transformation."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialbench.cli import main
from spatialbench.errors import FormatError, MissingRelation, NotInvertible
from spatialbench.evaluation import BenchReport, score_clause
from spatialbench.extraction import DetectedObject, Scene
from spatialbench.geometry import BoundingBox, DepthMap
from spatialbench.prompts import (
    PromptSpec,
    RelationQuadruple,
    parse_prompt,
    render_prompt,
    sample_prompt_set,
)
from spatialbench.relations import OPPOSITE_PAIRS, RelationKind, invert, pair_id
from spatialbench.textutil import json_document
from spatialbench.tore import (
    PAIR_IDS,
    BiasProfile,
    ToreConfig,
    builtin_profile,
    compute_bias_profile,
    load_bias_profile,
    transform_prompt,
    transform_spec,
)

from strategies import integer_boxes, prompt_specs, quadruples

TOP_BOTTOM = OPPOSITE_PAIRS[0]
LEFT_RIGHT = OPPOSITE_PAIRS[1]
FRONT_BEHIND = OPPOSITE_PAIRS[2]

_FLIPPABLE = tuple(k for k in RelationKind if k.is_directional_2d or k.is_3d)


def quad(subject, kind, objects):
    if isinstance(objects, str):
        objects = (objects,)
    return RelationQuadruple(subject, kind, objects)


def profile_preferring(*kinds, margin=0.1):
    table = {}
    for pair in OPPOSITE_PAIRS:
        a, b = pair
        if a in kinds:
            table[pair_id(pair)] = {a.value: 0.5 + margin, b.value: 0.5}
        elif b in kinds:
            table[pair_id(pair)] = {a.value: 0.5, b.value: 0.5 + margin}
    return BiasProfile(table)


class TestFlipClause:
    def test_bottom_becomes_top(self):
        q = quad("bench", "bottom", "tree")
        assert invert(q) == quad("tree", "top", "bench")

    @pytest.mark.parametrize("kind", [k.value for k in _FLIPPABLE])
    def test_involution(self, kind):
        q = quad("bench", kind, "tree")
        assert invert(invert(q)) == q

    def test_next_and_between_not_flippable(self):
        with pytest.raises(NotInvertible):
            invert(quad("a", "between", ("b", "c")))


class TestBiasProfile:
    def test_preferred_side(self):
        p = BiasProfile({"top_bottom": {"top": 0.41, "bottom": 0.33}})
        assert p.preferred(TOP_BOTTOM) is RelationKind.TOP
        assert p.dispreferred(TOP_BOTTOM) is RelationKind.BOTTOM

    def test_tie_gives_no_preference(self):
        p = BiasProfile({"left_right": {"left": 0.16, "right": 0.16}})
        assert p.preferred(LEFT_RIGHT) is None
        assert p.dispreferred(LEFT_RIGHT) is None

    def test_uncovered_pair_has_no_preference(self):
        p = BiasProfile({"top_bottom": {"top": 0.5, "bottom": 0.4}})
        assert p.preferred(FRONT_BEHIND) is None

    def test_partner_required(self):
        with pytest.raises(FormatError):
            BiasProfile({"top_bottom": {"top": 0.5}})

    def test_range_checked(self):
        with pytest.raises(FormatError):
            BiasProfile({"top_bottom": {"top": 1.5, "bottom": 0.4}})

    def test_unpaired_kind_rejected(self):
        with pytest.raises(FormatError):
            BiasProfile({"next": {"next": 0.5}})

    def test_builtin_flux1_prefers_top_left_front(self):
        p = builtin_profile("flux1")
        assert p.preferred(TOP_BOTTOM) is RelationKind.TOP
        assert p.preferred(LEFT_RIGHT) is RelationKind.LEFT
        assert p.preferred(FRONT_BEHIND) is RelationKind.FRONT

    def test_builtin_sdxl_left_right_tied(self):
        p = builtin_profile("sdxl")
        assert p.preferred(LEFT_RIGHT) is None
        assert p.preferred(TOP_BOTTOM) is RelationKind.TOP
        assert p.preferred(FRONT_BEHIND) is RelationKind.FRONT

    def test_unknown_builtin(self):
        with pytest.raises(FormatError):
            builtin_profile("imagen")


class TestToreConfig:
    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            ToreConfig(builtin_profile("flux1"), frozenset({"up_down"}))

    def test_empty_pair_set_rejected(self):
        with pytest.raises(ValueError, match="valid ids: top_bottom, left_right, front_behind"):
            ToreConfig(builtin_profile("flux1"), frozenset())

    def test_defaults_enable_all_pairs(self):
        cfg = ToreConfig(builtin_profile("flux1"))
        assert cfg.enabled_pairs == {"top_bottom", "left_right", "front_behind"}


class TestTransformPrompt:
    def cfg(self):
        return ToreConfig(builtin_profile("flux1"))

    def test_right_flipped_to_left(self):
        got = transform_prompt("A bus to the right of a car in a city", self.cfg())
        assert got == "A car to the left of a bus in a city"

    def test_behind_flipped_to_front(self):
        got = transform_prompt("A market behind a building in a city", self.cfg())
        assert got == "A building in front of a market in a city"

    def test_preferred_side_returned_untouched(self):
        text = "A car  TO THE LEFT OF a bus in a city"  # odd spacing and case survive
        assert transform_prompt(text, self.cfg()) == text

    def test_complex_prompt_reanchored(self):
        text = "A street sign behind a person, a sunglass next to the person in a street"
        got = transform_prompt(text, self.cfg())
        assert got == (
            "A person in front of a street sign, a sunglass next to the person in a street"
        )
        spec = parse_prompt(got)
        assert spec.anchor == "person"

    def test_variant_phrase_rerendered_canonically(self):
        got = transform_prompt("A pool below a chair in a residential area", self.cfg())
        assert got == "A chair on top of a pool in a residential area"

    def test_tie_disables_pair(self):
        cfg = ToreConfig(builtin_profile("sdxl"))
        text = "A bus to the right of a car in a city"
        assert transform_prompt(text, cfg) == text

    def test_disabled_pair_not_flipped(self):
        cfg = ToreConfig(builtin_profile("flux1"), frozenset({"front_behind"}))
        text = "A bus to the right of a car in a city"
        assert transform_prompt(text, cfg) == text

    def test_next_and_between_pass_through(self):
        cfg = self.cfg()
        for text in (
            "A bench next to a tree in a city",
            "A bench between a car and a tree in a city",
        ):
            assert transform_prompt(text, cfg) == text

    def test_lenient_passes_garbage_through(self):
        cfg = self.cfg()
        assert transform_prompt("a photo of a sunset", cfg) == "a photo of a sunset"

    @pytest.mark.parametrize("text", [
        "A bus to the right of a car in a street, at night",
        "A bus to the right of a car in a street in a",
        "A bus to the right of a car in a street in an",
    ])
    def test_bad_context_passes_through(self, text):
        assert transform_prompt(text, self.cfg()) == text

    def test_cli_passes_bad_context_through_line_aligned(self, tmp_path, capsys):
        lines = [
            "A bus to the right of a car in a city",
            "A bus to the right of a car in a street, at night",
            "A bus to the right of a car in a street in a",
            "A market behind a building in a city",
        ]
        src = tmp_path / "p.txt"
        src.write_text("".join(line + "\n" for line in lines))
        assert main(["tore", "--profile", "sdxl", str(src)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [
            lines[0],  # sdxl ties left and right
            lines[1],
            lines[2],
            "A building in front of a market in a city",
        ]

    def test_transform_spec_reports_change(self):
        spec = PromptSpec((quad("bus", "right", "car"),), "city")
        out, changed = transform_spec(spec, self.cfg())
        assert changed
        assert out == PromptSpec((quad("car", "left", "bus"),), "city")
        same, changed = transform_spec(out, self.cfg())
        assert not changed
        assert same == out


# ---------------------------------------------------------------------------
# property suites

@st.composite
def bias_profiles(draw):
    levels = [0.0, 0.2, 0.4, 0.4, 0.8, 1.0]
    table = {}
    for pair in OPPOSITE_PAIRS:
        if draw(st.booleans()):
            table[pair_id(pair)] = {kind.value: draw(st.sampled_from(levels)) for kind in pair}
    return BiasProfile(table)


@given(prompt_specs(), bias_profiles())
@settings(max_examples=300, deadline=None)
def test_transform_idempotent(spec, profile):
    cfg = ToreConfig(profile)
    text = render_prompt(spec)
    once = transform_prompt(text, cfg)
    assert transform_prompt(once, cfg) == once


@given(prompt_specs(), bias_profiles())
@settings(max_examples=300, deadline=None)
def test_transform_preserves_meaning_set(spec, profile):
    cfg = ToreConfig(profile)
    out = parse_prompt(transform_prompt(render_prompt(spec), cfg))
    assert len(out.clauses) == len(spec.clauses)
    for before, after in zip(spec.clauses, out.clauses):
        assert after == before or after == invert(before)


@st.composite
def labeled_scenes(draw):
    n = draw(st.integers(2, 5))
    labels = [draw(st.sampled_from(["a", "b"])) for _ in range(n)]
    labels[0], labels[1] = "a", "b"  # both labels always present
    objs = tuple(
        DetectedObject(lab, draw(integer_boxes(grid=8))) for lab in labels
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    depth = DepthMap(rng.integers(0, 64, size=(9, 9)).astype(np.float64))
    return Scene("img", 9, 9, objs, depth=depth)


@given(
    labeled_scenes(),
    st.sampled_from(_FLIPPABLE),
)
@settings(max_examples=400, deadline=None)
def test_flip_preserves_clause_verdict(scene, kind):
    clause = quad("a", kind, "b")
    original = score_clause(clause, scene).satisfied
    flipped = score_clause(invert(clause), scene).satisfied
    assert original == flipped


# ---------------------------------------------------------------------------
# profile derivation and files

def report_with(soft, bias=None):
    counts = {k: 100 for k in soft}
    return BenchReport(soft=soft, strict=0.0, counts=counts, bias=bias or {})


class TestComputeBiasProfile:
    def test_published_row_yields_expected_preferences(self):
        report = report_with(
            soft={
                "top": 0.41, "bottom": 0.33,
                "left": 0.32, "right": 0.31,
                "front": 0.31, "behind": 0.28,
            },
            bias={
                "top_bottom": {"top": 0.41, "bottom": 0.33},
                "left_right": {"left": 0.32, "right": 0.31},
                "front_behind": {"front": 0.31, "behind": 0.28},
            },
        )
        profile = compute_bias_profile(report)
        assert profile.preferred(TOP_BOTTOM) is RelationKind.TOP
        assert profile.preferred(LEFT_RIGHT) is RelationKind.LEFT
        assert profile.preferred(FRONT_BEHIND) is RelationKind.FRONT

    def test_single_sided_pair_is_an_error(self):
        with pytest.raises(MissingRelation):
            compute_bias_profile(report_with({"top": 0.5}))

    def test_uncovered_pairs_are_omitted(self):
        profile = compute_bias_profile(report_with(
            {"top": 0.6, "bottom": 0.4},
            bias={"top_bottom": {"top": 0.6, "bottom": 0.4}},
        ))
        assert list(profile.table) == [pair_id(TOP_BOTTOM)]

    def test_bias_table_preferred_over_soft(self):
        report = report_with(
            soft={"top": 0.1, "bottom": 0.9},
            bias={"top_bottom": {"top": 0.8, "bottom": 0.4}},
        )
        profile = compute_bias_profile(report)
        assert profile.table["top_bottom"]["top"] == 0.8

    def test_no_pairs_at_all(self):
        with pytest.raises(MissingRelation):
            compute_bias_profile(report_with({"next": 0.5}))


class TestProfileFiles:
    def test_round_trip(self, tmp_path):
        profile = builtin_profile("flux1")
        p = tmp_path / "prof.json"
        p.write_text(json_document(profile.table))
        assert load_bias_profile(p) == profile

    def test_bad_pair_key(self, tmp_path):
        p = tmp_path / "prof.json"
        p.write_text('{"up_down": {"up": 0.5, "down": 0.4}}')
        with pytest.raises(FormatError):
            load_bias_profile(p)

    def test_missing_side(self, tmp_path):
        p = tmp_path / "prof.json"
        p.write_text('{"top_bottom": {"top": 0.5}}')
        with pytest.raises(FormatError):
            load_bias_profile(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "prof.json"
        p.write_text("accuracy: high")
        with pytest.raises(FormatError):
            load_bias_profile(p)

    @pytest.mark.parametrize("table", [
        [0.4, 0.3],
        {"up_down": {"up": 1, "down": 0}},
        {"top_bottom": [0.4, 0.3]},
        {"top_bottom": {"top": 0.4}},
        {"top_bottom": {"top": "0.4", "bottom": 0.3}},
        {"top_bottom": {"top": 0.4, "bottom": True}},
    ], ids=["array", "pair", "entry", "side", "string", "bool"])
    def test_file_and_in_memory_tables_fail_alike(self, tmp_path, table):
        # one check serves both: a file's error is the table's, prefixed with the path
        p = tmp_path / "prof.json"
        p.write_text(json_document(table))
        with pytest.raises(FormatError) as in_memory:
            BiasProfile(table)
        with pytest.raises(FormatError) as from_file:
            load_bias_profile(p)
        assert from_file.value.reason == f"bias profile {p}: {in_memory.value.reason}"
        assert (from_file.value.line, from_file.value.field) == (None, in_memory.value.field)


@given(bias_profiles(), st.sets(st.sampled_from(PAIR_IDS), min_size=1))
@settings(max_examples=200, deadline=None)
def test_flip_kinds_are_the_dispreferred_sides_of_enabled_pairs(profile, enabled):
    cfg = ToreConfig(profile, frozenset(enabled))
    expected = {profile.dispreferred(p) for p in OPPOSITE_PAIRS if pair_id(p) in enabled}
    assert cfg.flip_kinds == expected - {None}


@pytest.mark.parametrize("name", ["flux1", "sdxl"])
def test_builtin_flip_kinds(name):
    profile = builtin_profile(name)
    cfg = ToreConfig(profile)
    assert cfg.flip_kinds == {profile.dispreferred(p) for p in OPPOSITE_PAIRS} - {None}
    assert ToreConfig(profile, frozenset({"front_behind"})).flip_kinds == (
        {profile.dispreferred(FRONT_BEHIND)} - {None})


def test_rewriting_builds_no_validated_objects(monkeypatch):
    # parsing and flipping take the trusted constructors; a fallback to the
    # validating ones would run these hooks
    texts = [render_prompt(spec) for spec in sample_prompt_set(
        _pool(), {k: 3 for k in RelationKind}, {k: 2 for k in RelationKind}, seed=4)]
    cfg = ToreConfig(builtin_profile("flux1"))
    calls = []
    for cls in (RelationQuadruple, PromptSpec):
        original = cls.__post_init__

        def counted(self, _original=original):
            calls.append(type(self).__name__)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    flipped = 0
    for text in texts:
        parse_prompt(text)
        flipped += transform_prompt(text, cfg) != text
    assert flipped and calls == []


def _pool() -> list[RelationQuadruple]:
    objects = ("bench", "tree", "car", "lamp", "bus")
    pool = [RelationQuadruple(a, kind, (b,)) for kind in RelationKind if kind.has_opposite
            or kind is RelationKind.NEXT for a, b in permutations(objects, 2)]
    return pool + [RelationQuadruple(a, RelationKind.BETWEEN, (b, c))
                   for a, b, c in permutations(objects, 3)]
