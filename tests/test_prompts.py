"""Prompt grammar: rendering, parsing, inversion, sampling."""

from __future__ import annotations

import dataclasses
import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatialbench import prompts
from spatialbench.errors import (
    InsufficientPool,
    NotInvertible,
    ParseError,
    UnknownKind,
)
from spatialbench.lexicon import (
    PhraseLexicon,
    default_contexts,
    default_objects,
    default_phrase_lexicon,
)
from spatialbench.prompts import (
    PromptSpec,
    RelationQuadruple,
    article_for,
    parse_prompt,
    render_prompt,
    sample_prompt_set,
)
from spatialbench.relations import RelationKind, invert

OBJECTS = default_objects()
CONTEXTS = default_contexts()


def quad(subject, kind, objects):
    if isinstance(objects, str):
        objects = (objects,)
    return RelationQuadruple(subject, kind, objects)


class TestArticle:
    def test_vowel_rule(self):
        assert article_for("umbrella") == "an"
        assert article_for("elevator") == "an"
        assert article_for("car") == "a"
        assert article_for("streetlight") == "a"


class TestRelationQuadruple:
    def test_between_needs_two_objects(self):
        with pytest.raises(ValueError):
            quad("bench", RelationKind.BETWEEN, ("tree",))
        with pytest.raises(ValueError):
            quad("bench", RelationKind.RIGHT, ("tree", "car"))

    def test_normalization(self):
        q = quad("  Fire   Hydrant ", "right", ("  Car ",))
        assert q.subject == "fire hydrant"
        assert q.objects == ("car",)
        assert q.kind is RelationKind.RIGHT

    def test_no_context_field(self):
        # the context is the prompt's (PromptSpec.context), held once
        assert "context" not in {f.name for f in dataclasses.fields(RelationQuadruple)}
        with pytest.raises(TypeError):
            RelationQuadruple("bench", "right", ("car",), "city")

    def test_empty_phrases_rejected(self):
        with pytest.raises(ValueError):
            quad("", RelationKind.RIGHT, ("car",))
        with pytest.raises(ValueError):
            quad("bench", RelationKind.RIGHT, (" ",))

    def test_comma_rejected(self):
        with pytest.raises(ValueError):
            quad("bench, red", RelationKind.RIGHT, ("car",))

class TestPromptSpec:
    def test_context_normalized(self):
        spec = PromptSpec((quad("bench", "right", "car"),), " City ")
        assert spec.context == "city"
        assert not spec.is_complex

    def test_context_with_embedded_marker_rejected(self):
        with pytest.raises(ValueError):
            PromptSpec((quad("bench", RelationKind.RIGHT, ("car",)),), "park in a city")

    def test_missing_context_rejected(self):
        with pytest.raises(TypeError):
            PromptSpec((quad("bench", "right", "car"),))
        with pytest.raises(ValueError):
            PromptSpec((quad("bench", "right", "car"),), "  ")

    def test_complex_requires_shared_phrase(self):
        q1 = quad("bench", "right", "car")
        q2 = quad("dog", "next", "cat")
        with pytest.raises(ValueError):
            PromptSpec((q1, q2), "city")

    def test_anchor_prefers_first_clause_objects(self):
        q1 = quad("bench", "right", "car")
        q2 = quad("car", "next", "bench")
        assert PromptSpec((q1, q2), "city").anchor == "car"

    def test_anchor_falls_back_to_subject(self):
        q1 = quad("bench", "right", "car")
        q2 = quad("dog", "next", "bench")
        assert PromptSpec((q1, q2), "city").anchor == "bench"


SIMPLE_RENDERS = [
    (("streetlight", "right", "garbage", "residential area"),
     "A streetlight to the right of a garbage in a residential area"),
    (("market", "behind", "building", "city"),
     "A market behind a building in a city"),
    (("water tank", "top", "street", "downtown area"),
     "A water tank on top of a street in a downtown area"),
    (("light fixture", "front", "garage", "residential area"),
     "A light fixture in front of a garage in a residential area"),
    (("umbrella", "right", "car", "street"),
     "An umbrella to the right of a car in a street"),
    (("stone walkway", "bottom", "window", "residential area"),
     "A stone walkway under a window in a residential area"),
    (("pool", "bottom", "chair", "residential area"),
     "A pool under a chair in a residential area"),
    (("white line", "bottom", "building", "residential area"),
     "A white line under a building in a residential area"),
    (("couch", "front", "building", "street"),
     "A couch in front of a building in a street"),
    (("waterway", "right", "car", "downtown area"),
     "A waterway to the right of a car in a downtown area"),
]

COMPLEX_RENDERS = [
    ((("street sign", "behind", "person"), ("sunglass", "next", "person"), "street"),
     "A street sign behind a person, a sunglass next to the person in a street"),
    ((("garden", "bottom", "person"), ("traffic light", "top", "person"), "city"),
     "A garden under a person, a traffic light on top of the person in a city"),
    ((("streetlight", "between", ("streetlight", "streetlight")),
      ("bench", "right", "streetlight"), "downtown area"),
     "A streetlight between two streetlights, a bench to the right of the streetlight in a downtown area"),
    ((("parking meter", "bottom", "building"), ("pipe", "behind", "building"), "street"),
     "A parking meter under a building, a pipe behind the building in a street"),
    ((("window", "behind", "building"), ("map", "top", "building"), "city"),
     "A window behind a building, a map on top of the building in a city"),
    ((("tv", "front", "building"), ("clock", "front", "building"), "city"),
     "A tv in front of a building, a clock in front of the building in a city"),
    ((("street light", "between", ("tripod", "fire hydrant")),
      ("camera", "top", "tripod"), "street"),
     "A street light between a tripod and a fire hydrant, a camera on top of the tripod in a street"),
    ((("fountain", "right", "statue"), ("fence", "bottom", "statue"), "city"),
     "A fountain to the right of a statue, a fence under the statue in a city"),
    ((("sidewalk", "left", "cell phone"), ("wifi symbol", "top", "cell phone"), "street"),
     "A sidewalk to the left of a cell phone, a wifi symbol on top of the cell phone in a street"),
]


class TestRender:
    @pytest.mark.parametrize("fields,text", SIMPLE_RENDERS)
    def test_simple_prompts(self, fields, text):
        subject, kind, obj, context = fields
        spec = PromptSpec((quad(subject, kind, obj),), context)
        assert render_prompt(spec) == text

    @pytest.mark.parametrize("fields,text", COMPLEX_RENDERS)
    def test_complex_prompts(self, fields, text):
        (s1, k1, o1), (s2, k2, o2), context = fields
        spec = PromptSpec((quad(s1, k1, o1), quad(s2, k2, o2)), context=context)
        assert render_prompt(spec) == text

    def test_between_distinct_flankers(self):
        spec = PromptSpec((quad("bench", "between", ("car", "tree")),), "city")
        assert render_prompt(spec) == "A bench between a car and a tree in a city"

    def test_between_anchored_identical_flankers(self):
        q1 = quad("bench", "next", "streetlight")
        q2 = quad("lamp", "between", ("streetlight", "streetlight"))
        spec = PromptSpec((q1, q2), "city")
        assert render_prompt(spec) == (
            "A bench next to a streetlight, a lamp between the two streetlights in a city"
        )

    def test_unknown_kind_when_lexicon_partial(self):
        lex = PhraseLexicon({RelationKind.RIGHT: ("to the right of",)})
        spec = PromptSpec((quad("bench", "top", "car"),), "city")
        with patch.object(prompts, "default_phrase_lexicon", lambda: lex):
            with pytest.raises(UnknownKind):
                render_prompt(spec)


class TestParse:
    @pytest.mark.parametrize("fields,text", SIMPLE_RENDERS)
    def test_simple_round_trip_examples(self, fields, text):
        subject, kind, obj, context = fields
        expected = PromptSpec((quad(subject, kind, obj),), context)
        assert parse_prompt(text) == expected

    @pytest.mark.parametrize("fields,text", COMPLEX_RENDERS)
    def test_complex_round_trip_examples(self, fields, text):
        (s1, k1, o1), (s2, k2, o2), context = fields
        expected = PromptSpec((quad(s1, k1, o1), quad(s2, k2, o2)), context=context)
        assert parse_prompt(text) == expected

    def test_case_insensitive(self):
        assert parse_prompt("A MARKET BEHIND A BUILDING IN A CITY") == PromptSpec(
            (quad("market", "behind", "building"),), "city"
        )

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("A pool below a chair in a residential area", "bottom"),
            ("A pool on the bottom of a chair in a residential area", "bottom"),
            ("A pool underneath a chair in a residential area", "bottom"),
            ("A market in back of a building in a city", "behind"),
            ("A market at the back of a building in a city", "behind"),
            ("A pool above a chair in a residential area", "top"),
            ("A pool over a chair in a residential area", "top"),
            ("A bench beside a chair in a residential area", "next"),
            ("A bench near a chair in a residential area", "next"),
            ("A bench adjacent to a chair in a residential area", "next"),
            ("A bench on the right side of a chair in a residential area", "right"),
            ("A bench left of a chair in a residential area", "left"),
            ("A bench ahead of a chair in a residential area", "front"),
        ],
    )
    def test_variant_phrases(self, text, kind):
        spec = parse_prompt(text)
        assert spec.clauses[0].kind is RelationKind(kind)

    def test_in_between_variant(self):
        spec = parse_prompt("A dog in between a cat and a bird in a city")
        assert spec.clauses[0] == quad("dog", "between", ("cat", "bird"))

    def test_unmarked_shared_phrase_accepted(self):
        # detector-derived sets contain prompts that repeat the shared noun
        # without "the"; these stay parseable
        text = ("A gate to the right of a garage door, a garage door between "
                "a garage door and a stair in a residential area")
        spec = parse_prompt(text)
        assert spec.clauses[0] == quad("gate", "right", "garage door")
        assert spec.clauses[1] == quad("garage door", "between", ("garage door", "stair"))
        assert spec.anchor == "garage door" and spec.context == "residential area"

    def test_multiword_tokens_with_hyphen_artifact(self):
        text = "A rooftop under a high - rise, a cloud next to the high - rise in a city"
        spec = parse_prompt(text)
        assert spec.clauses[0] == quad("rooftop", "bottom", "high - rise")
        assert spec.clauses[1] == quad("cloud", "next", "high - rise")

    def test_optional_the_before_two(self):
        spec = parse_prompt(
            "A bench next to a streetlight, a lamp between two streetlights in a city"
        )
        assert spec.clauses[1].objects == ("streetlight", "streetlight")

    @pytest.mark.parametrize(
        "text",
        [
            "A photo of a sunset",
            "",
            "A bench next to a tree",
            "The bench next to a tree in a city",
            "A bench next to the tree in a city",
            "A bench next to a tree, a dog under a cat in a city",
            "A bench next to a tree, a dog under the lamp in a city",
            "A bench next to a tree, a dog under a tree, a cat near a dog in a city",
            "A bench between a tree in a city",
            "Next to a tree in a city",
            "A bench between two hice in a city",
        ],
    )
    def test_out_of_grammar_rejected(self, text):
        with pytest.raises(ParseError):
            parse_prompt(text)

    def test_no_relation_phrase_reason(self):
        with pytest.raises(ParseError, match="no relation phrase"):
            parse_prompt("A photo of a sunset")

    def test_error_position_points_at_definite_article(self):
        with pytest.raises(ParseError) as exc:
            parse_prompt("A bench next to the tree in a city")
        assert exc.value.position == 4

    @pytest.mark.parametrize("text, reason, position", [
        ("A car to the left of a bus in a street, at night",
         "context 'street , at night' contains a comma", 11),
        ("A car to the left of a bus in a street,", "context 'street ,' contains a comma", 11),
        ("A car to the left of a bus in a street in a",
         "context 'street in a' contains an 'in a' marker", 11),
        ("A car to the left of a bus in a street, in an",
         "context 'street , in an' contains a comma", 11),
    ])
    def test_bad_context_is_a_parse_error(self, text, reason, position):
        with pytest.raises(ParseError) as exc:
            parse_prompt(text)
        assert (exc.value.reason, exc.value.position) == (reason, position)

    def test_clause_errors_come_before_context_errors(self):
        with pytest.raises(ParseError) as exc:
            parse_prompt("A bench next to the tree in a street, at night")
        assert (exc.value.reason, exc.value.position) == (
            "'the tree' has no antecedent in the first clause", 4)


# ---------------------------------------------------------------------------
# property tests

from strategies import prompt_specs, quadruples


@given(prompt_specs())
@settings(max_examples=500, deadline=None)
def test_parse_render_round_trip(spec):
    assert parse_prompt(render_prompt(spec)) == spec


@given(quadruples(), st.data())
@settings(max_examples=300, deadline=None)
def test_any_accepted_phrase_parses_to_same_spec(q, data):
    entries = default_phrase_lexicon().entries
    variant = data.draw(st.sampled_from(entries[q.kind]))
    variant_lex = PhraseLexicon(
        {kind: (variant,) if kind is q.kind else phrases for kind, phrases in entries.items()}
    )
    spec = PromptSpec((q,), data.draw(st.sampled_from(CONTEXTS)))
    with patch.object(prompts, "default_phrase_lexicon", lambda: variant_lex):
        text = render_prompt(spec)
    assert parse_prompt(text) == spec


def _fields(spec: PromptSpec) -> tuple:
    return (type(spec), spec.context, [
        (type(c), c.subject, c.kind, type(c.objects), c.objects)
        for c in spec.clauses
    ])


def _rebuilt(spec: PromptSpec) -> PromptSpec:
    """The spec's parts passed through the public, validating constructors."""
    clauses = tuple(RelationQuadruple(c.subject, c.kind.value, list(c.objects))
                    for c in spec.clauses)
    return PromptSpec(clauses, context=spec.context)


@given(prompt_specs())
@settings(max_examples=300, deadline=None)
def test_parsed_spec_equals_validated_rebuild(spec):
    parsed = parse_prompt(render_prompt(spec))
    assert _fields(parsed) == _fields(_rebuilt(parsed)) == _fields(spec)


_SOUP = (
    "a", "an", "the", "A", "The", "two", "the two", "and", ",", "in", "in a", "in an",
    "IN A", "to the right of", "left of", "under", "between", "in between", "next to",
    "behind", "on top of", "in front of", "bench", "benches", "people", "street", "city",
    "Fire  Hydrant", "at night", "\t",
)


def _token_soup(rng: random.Random, seeds: list[str]) -> str:
    tokens = rng.choice(seeds).split()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0 and len(tokens) > 1:
            del tokens[rng.randrange(len(tokens))]
        elif op == 1 and len(tokens) > 1:
            i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_SOUP))
    return " ".join(tokens).replace(" ,", rng.choice((",", " ,")))


def test_token_soup_parses_to_validated_specs():
    rng = random.Random(12)
    pool = [quad(a, kind, (b, c) if kind is RelationKind.BETWEEN else (b,))
            for kind in RelationKind for a, b, c in zip(OBJECTS, OBJECTS[1:], OBJECTS[2:40])]
    seeds = [render_prompt(spec) for spec in sample_prompt_set(
        pool, {k: 5 for k in RelationKind}, {k: 5 for k in RelationKind}, seed=3)]
    parsed = 0
    for _ in range(4000):
        text = _token_soup(rng, seeds)
        try:
            spec = parse_prompt(text)
        except ParseError:
            continue  # anything else escaping the parser fails the test
        parsed += 1
        assert _fields(spec) == _fields(_rebuilt(spec)), text
    assert 400 < parsed < 3600  # both outcomes are well represented


def _outcome(text: str):
    try:
        return _fields(parse_prompt(text))
    except ParseError as exc:
        return exc.reason, exc.position


def test_first_clause_reuse_matches_a_rescan():
    # the reference parser scans the first clause again instead of reusing
    # the whole-prompt hit
    rescan = prompts._parse_clause

    def always_rescan(tokens, offset, index, longest, found=None):
        return rescan(tokens, offset, index, longest)

    rng = random.Random(5)
    pool = [quad(a, kind, (b, c) if kind is RelationKind.BETWEEN else (b,))
            for kind in RelationKind for a, b, c in zip(OBJECTS, OBJECTS[1:], OBJECTS[2:40])]
    seeds = [render_prompt(spec) for spec in sample_prompt_set(
        pool, {k: 5 for k in RelationKind}, {k: 5 for k in RelationKind}, seed=4)]
    # a relation phrase in the subject slot, running into the comma, or past it
    texts = seeds + ["Under a bench next to a tree in a city", "A under next to a tree in a city",
                     "A bench in front, of a tree in a city", "A bench next to, a tree in a city",
                     "A bench, a tree next to a car in a city"]
    texts += [_token_soup(rng, seeds) for _ in range(3000)]
    got = [_outcome(t) for t in texts]
    with patch.object(prompts, "_parse_clause", always_rescan):
        want = [_outcome(t) for t in texts]
    assert got == want


@pytest.mark.parametrize("text, scans", [
    ("A bench next to a tree in a city", 1),
    ("A bench next to a tree, a dog under the tree in a city", 2),
    # the first hit precedes position 2, so the first clause is scanned again
    ("Under a bench next to a tree in a city", 2),
])
def test_first_clause_reuses_the_prompt_scan(text, scans):
    calls = []
    scan = prompts._scan_relation
    with patch.object(prompts, "_scan_relation",
                      lambda *args, **kw: calls.append(args) or scan(*args, **kw)):
        _outcome(text)
    assert len(calls) == scans


@given(prompt_specs())
@settings(max_examples=200, deadline=None)
def test_rendered_article_matches_vowel_rule(spec):
    words = render_prompt(spec).lower().replace(",", " , ").split()
    for i, w in enumerate(words):
        if w in ("a", "an"):
            starts_vowel = words[i + 1][0] in "aeiou"
            assert (w == "an") == starts_vowel


class TestInvertQuadruple:
    def test_next_inverts_to_next(self):
        assert invert(quad("car", "next", "tree")) == quad("tree", "next", "car")

    @given(quadruples())
    @settings(max_examples=100, deadline=None)
    def test_inversion_is_involutive(self, q):
        if q.kind is RelationKind.BETWEEN:
            with pytest.raises(NotInvertible):
                invert(q)
        else:
            assert invert(invert(q)) == q


_OPPOSITE_SIDE = {"right": "left", "left": "right", "top": "bottom", "bottom": "top",
                  "front": "behind", "behind": "front"}


def _is_converse(first, second) -> bool:
    """second says "B k A" or "A opposite-of-k B" where first says "A k B"."""
    a, kind, b = first.subject, first.kind.value, first.objects[0]
    return kind in _OPPOSITE_SIDE and a != b and (
        (second.subject, second.kind.value, second.objects)
        in ((b, kind, (a,)), (a, _OPPOSITE_SIDE[kind], (b,))))


class TestSamplePromptSet:
    def pool(self):
        return [
            quad("car", "right", "tree"),
            quad("bench", "right", "car"),
            quad("streetlight", "right", "bench"),
            quad("dog", "left", "car"),
            quad("cat", "next", "dog"),
            quad("lamp", "between", ("car", "tree")),
        ]

    def test_deterministic(self):
        got = sample_prompt_set(self.pool(), {"right": 2}, {"right": 1}, seed=7)
        again = sample_prompt_set(self.pool(), {"right": 2}, {"right": 1}, seed=7)
        assert got == again
        assert len(got) == 3

    def test_requested_counts_and_kinds(self):
        specs = sample_prompt_set(self.pool(), {"right": 2, "left": 1}, seed=3)
        kinds = [s.clauses[0].kind.value for s in specs]
        assert kinds == ["right", "right", "left"]
        assert all(not s.is_complex for s in specs)

    def test_without_replacement(self):
        specs = sample_prompt_set(self.pool(), {"right": 3}, seed=1)
        assert len({s.clauses[0] for s in specs}) == 3

    def test_insufficient_pool(self):
        with pytest.raises(InsufficientPool):
            sample_prompt_set(self.pool(), {"right": 4}, seed=0)
        with pytest.raises(InsufficientPool):
            sample_prompt_set(self.pool(), {"front": 1}, seed=0)

    def test_context_filled_from_defaults(self):
        specs = sample_prompt_set(
            [quad("streetlight", "right", "bench")], {"right": 1}, seed=5
        )
        assert specs[0].context in CONTEXTS

    def test_complex_prompts_share_a_phrase(self):
        specs = sample_prompt_set(self.pool(), {}, {"right": 2}, seed=11)
        for spec in specs:
            assert spec.is_complex
            assert spec.anchor is not None
            assert spec.context in CONTEXTS

    def test_degenerate_directional_facts_excluded(self):
        with pytest.raises(InsufficientPool):
            sample_prompt_set([quad("car", "right", "car")], {"right": 1}, seed=0)

    def test_degenerate_next_fact_allowed(self):
        specs = sample_prompt_set([quad("car", "next", "car")], {"next": 1}, seed=0)
        assert specs[0].clauses[0].objects == ("car",)

    def test_complex_partner_is_never_the_converse(self):
        # with two phrases, every first clause has its converse in the pool
        pool = [quad(a, kind, b) for kind in ("right", "left", "top", "bottom",
                                                       "front", "behind", "next")
                for a, b in (("car", "bus"), ("bus", "car"))]
        drawn = 0
        for seed in range(40):
            for spec in sample_prompt_set(pool, {}, {"right": 2, "front": 2}, seed=seed):
                assert not _is_converse(*spec.clauses)
                drawn += 1
        assert drawn == 160

    def test_draws_change_only_from_a_rejected_partner_on(self):
        pool = [quad("car", "right", "bus"), quad("car", "next", "bus"),
                quad("bus", "top", "car"), quad("bus", "right", "car"),
                quad("car", "left", "bus"), quad("tree", "right", "bus")]
        redrawn = 0
        for seed in range(60):
            got = sample_prompt_set(pool, {"next": 1}, {"right": 3}, seed=seed)
            with patch.object(prompts, "_contradicts", lambda first, second: False):
                before = sample_prompt_set(pool, {"next": 1}, {"right": 3}, seed=seed)
            for new, old in zip(got, before):
                if old.is_complex and _is_converse(*old.clauses):
                    # the redraw takes one more draw, so later prompts may differ
                    assert new.clauses[0] == old.clauses[0] and not _is_converse(*new.clauses)
                    redrawn += 1
                    break
                assert new == old
        assert redrawn > 10

    def test_converse_alone_is_no_partner(self):
        pool = [quad("car", "right", "bus"), quad("bus", "right", "car")]
        with pytest.raises(InsufficientPool, match="not their converse"):
            sample_prompt_set(pool, {}, {"right": 1}, seed=0)
        # a phrase related to itself has no converse, repeated or reversed
        for partner in ("front", "behind"):
            pool = [quad("car", "front", "car"), quad("car", partner, "car")]
            (spec,) = sample_prompt_set(pool, {}, {"front": 1}, seed=0)
            assert spec.clauses[1] == pool[1]

    def test_complex_requires_partner(self):
        lone = [quad("car", "right", "tree")]
        with pytest.raises(InsufficientPool):
            sample_prompt_set(lone, {}, {"right": 1}, seed=0)

    def test_rendered_samples_parse_back(self):
        specs = sample_prompt_set(self.pool(), {"right": 3, "next": 1}, {"right": 2}, seed=9)
        for spec in specs:
            assert parse_prompt(render_prompt(spec)) == spec

    def test_bad_context_fails_even_when_never_drawn(self):
        # the one entry draws one context, which need not be the bad one
        pool = [quad("car", "right", "tree")]
        for bad in ("", "park, south", "lot in a city"):
            with pytest.raises(ValueError):
                sample_prompt_set(pool, {"right": 1}, seed=0, contexts=["city", bad])


# ---------------------------------------------------------------------------
# sampling against the naive pool scan

from naive_reference import NaivePoolTooSmall, naive_sample_prompt_set

_KIND_VALUES = tuple(k.value for k in RelationKind)


@st.composite
def sampling_cases(draw):
    # a few phrases make entries share phrases, repeat whole and degenerate;
    # many phrases leave entries without a partner
    phrases = OBJECTS[: draw(st.integers(2, 24))]
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(_KIND_VALUES))
        subject = draw(st.sampled_from(phrases))
        n = 2 if kind == "between" else 1
        objects = tuple(draw(st.sampled_from(phrases)) for _ in range(n))
        rows.append((subject, kind, objects))
    kinds = [row[1] for row in rows]
    # counts reach one past each kind's size, so both outcomes occur
    simple = draw(st.dictionaries(
        st.sampled_from(_KIND_VALUES), st.integers(0, 4), max_size=3))
    simple = {k: min(n, kinds.count(k) + 1) for k, n in simple.items()}
    complex_counts = draw(st.dictionaries(
        st.sampled_from(_KIND_VALUES), st.integers(0, 4), max_size=3))
    complex_counts = {k: min(n, kinds.count(k) + 1) for k, n in complex_counts.items()}
    return rows, simple, complex_counts, draw(st.integers(0, 2**32))


def _plain(specs):
    return [
        (tuple((c.subject, c.kind.value, c.objects) for c in spec.clauses), spec.context)
        for spec in specs
    ]


_EDGE_CASE = (
    [
        ("car", "right", ("tree",)),
        ("car", "right", ("tree",)),  # duplicate quadruple
        ("dog", "between", ("car", "car")),  # equal flankers
        ("bench", "next", ("bench",)),  # subject == object, kept
        ("bench", "left", ("bench",)),  # subject == object, dropped
        ("tree", "top", ("dog",)),
        ("bench", "right", ("dog",)),
        ("mailbox", "right", ("fountain",)),  # shares no phrase
    ],
    {"right": 4, "next": 1, "top": 1},
    {"right": 3, "between": 1},  # every right entry but the last has a partner
    5,
)


_CONVERSE_CASE = (
    [
        ("car", "right", ("bus",)),
        ("bus", "right", ("car",)),  # converse: same kind, roles swapped
        ("car", "left", ("bus",)),  # converse: opposite kind, same roles
        ("bus", "front", ("car",)),
        ("car", "behind", ("bus",)),  # converse of the front entry
        ("car", "next", ("bus",)),
    ],
    {},
    {"right": 2, "left": 1, "front": 1},
    3,
)


@given(sampling_cases())
@example(_EDGE_CASE)
@example(_CONVERSE_CASE)
@settings(max_examples=300, deadline=None)
def test_sampling_matches_naive_pool_scan(case):
    rows, simple, complex_counts, seed = case
    pool = [quad(*row) for row in rows]
    try:
        expected = naive_sample_prompt_set(rows, simple, complex_counts, seed, CONTEXTS)
    except NaivePoolTooSmall:
        with pytest.raises(InsufficientPool):
            sample_prompt_set(pool, simple, complex_counts, seed=seed, contexts=CONTEXTS)
        return
    got = sample_prompt_set(pool, simple, complex_counts, seed=seed, contexts=CONTEXTS)
    assert _plain(got) == expected
