"""Phrase lexicon, object inventory, pluralization."""

import json

import pytest

from spatialbench.errors import FormatError, UnknownKind
from spatialbench.geometry import RelationKind
from spatialbench.lexicon import (
    PhraseLexicon,
    default_contexts,
    default_objects,
    default_phrase_lexicon,
    load_object_list,
    load_phrase_lexicon,
    pluralize,
    singularize,
)


class TestPluralize:
    @pytest.mark.parametrize(
        "singular,plural",
        [
            ("streetlight", "streetlights"),
            ("bench", "benches"),
            ("bush", "bushes"),
            ("mailbox", "mailboxes"),
            ("sunglass", "sunglasses"),
            ("balcony", "balconies"),
            ("alley", "alleys"),
            ("person", "people"),
            ("man", "men"),
            ("woman", "women"),
            ("child", "children"),
            ("garage door", "garage doors"),
            ("satellite dish", "satellite dishes"),
        ],
    )
    def test_known_forms(self, singular, plural):
        assert pluralize(singular) == plural

    def test_singularize_inverts(self):
        assert singularize("people") == "person"
        assert singularize("garage doors") == "garage door"
        assert singularize("benches") == "bench"
        assert singularize("balconies") == "balcony"

    def test_singularize_rejects_nonplurals(self):
        assert singularize("streetlight") is None
        assert singularize("hydrant") is None

    def test_round_trip_over_full_object_list(self):
        for phrase in default_objects():
            assert singularize(pluralize(phrase)) == phrase, phrase


class TestObjectList:
    def test_exactly_299_objects(self):
        assert len(default_objects()) == 299

    def test_entries_are_normalized_and_unique(self):
        objs = default_objects()
        assert len(set(objs)) == len(objs)
        for o in objs:
            assert o == " ".join(o.split()).lower()

    def test_entries_avoid_grammar_tokens(self):
        # articles, the context marker, and relation-phrase words would make
        # rendered prompts ambiguous to parse
        reserved = {"a", "an", "the", "in", "on", "to", "of", "and", "two"}
        for o in default_objects():
            assert not reserved & set(o.split()), o

    def test_duplicate_lines_rejected(self, tmp_path):
        p = tmp_path / "objs.txt"
        p.write_text("car\ncar\n")
        with pytest.raises(FormatError):
            load_object_list(p)


class TestContexts:
    def test_four_urban_contexts(self):
        assert default_contexts() == ("city", "street", "downtown area", "residential area")


class TestPhraseLexicon:
    def test_covers_all_kinds(self):
        lex = default_phrase_lexicon()
        assert set(lex.kinds()) == set(RelationKind)

    @pytest.mark.parametrize(
        "kind,phrase",
        [
            (RelationKind.RIGHT, "to the right of"),
            (RelationKind.LEFT, "to the left of"),
            (RelationKind.TOP, "on top of"),
            (RelationKind.BOTTOM, "under"),
            (RelationKind.NEXT, "next to"),
            (RelationKind.FRONT, "in front of"),
            (RelationKind.BEHIND, "behind"),
            (RelationKind.BETWEEN, "between"),
        ],
    )
    def test_canonical_phrases(self, kind, phrase):
        assert default_phrase_lexicon().canonical_phrase(kind) == phrase

    def test_bottom_variants(self):
        got = default_phrase_lexicon().accepted_phrases(RelationKind.BOTTOM)
        assert set(got) == {"under", "on the bottom of", "below", "underneath"}

    def test_variants_disjoint_across_kinds(self):
        lex = default_phrase_lexicon()
        seen = set()
        for kind in lex.kinds():
            for phrase in lex.accepted_phrases(kind):
                assert phrase not in seen
                seen.add(phrase)

    def test_token_index_longest_phrase(self):
        lex = default_phrase_lexicon()
        index = lex.token_index()
        assert index[("on", "the", "right", "side", "of")] is RelationKind.RIGHT
        assert lex.max_phrase_tokens() == 5
        assert len(index) == sum(len(lex.accepted_phrases(k)) for k in lex.kinds())

    def test_token_index_is_read_only(self):
        lex = default_phrase_lexicon()
        with pytest.raises(TypeError):
            lex.token_index()[("sideways",)] = RelationKind.RIGHT
        assert ("sideways",) not in lex.token_index()

    def test_partial_lexicon_raises_unknown_kind(self):
        lex = PhraseLexicon({RelationKind.RIGHT: ("to the right of",)})
        assert lex.canonical_phrase(RelationKind.RIGHT) == "to the right of"
        with pytest.raises(UnknownKind):
            lex.canonical_phrase(RelationKind.TOP)

    def test_conflicting_variants_rejected(self):
        with pytest.raises(ValueError):
            PhraseLexicon(
                {
                    RelationKind.RIGHT: ("to the right of",),
                    RelationKind.LEFT: ("to the right of",),
                }
            )

    def test_load_rejects_unknown_kind_key(self, tmp_path):
        p = tmp_path / "lex.json"
        p.write_text(json.dumps({"diagonal": {"canonical": "diagonal to"}}))
        with pytest.raises(FormatError):
            load_phrase_lexicon(p)

    def test_load_custom_file(self, tmp_path):
        p = tmp_path / "lex.json"
        p.write_text(
            json.dumps({"right": {"canonical": "Right Of", "variants": ["to the right of"]}})
        )
        lex = load_phrase_lexicon(p)
        assert lex.canonical_phrase(RelationKind.RIGHT) == "right of"
        assert lex.accepted_phrases(RelationKind.RIGHT) == ("right of", "to the right of")
