"""Rendering and parsing of spatially explicit urban prompts.

Grammar (case-insensitive):

  simple:  "A|An SUBJ PHRASE a|an OBJ in a|an CONTEXT"
  complex: two comma-joined clauses sharing one trailing context
  between: the object slot becomes "ART OBJ and ART OBJ", collapsing to
           "two PLURAL" (or "the two PLURAL") when both flankers are equal

In a complex prompt the second clause refers back to a phrase of the first
(the anchor) with the definite article. The renderer always marks the anchor;
the parser also accepts an unmarked repetition of a shared phrase, which
occurs in detector-derived prompt sets.

The relation phrase is found by leftmost-longest token matching against the
lexicon, and the context is whatever follows the last "in a|an" marker. Both
rules keep arbitrary multiword noun phrases parseable without a noun
inventory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import InsufficientPool, ParseError
from .geometry import KIND_ORDER, RelationKind
from .lexicon import (
    PhraseLexicon,
    default_contexts,
    default_phrase_lexicon,
    pluralize,
    singularize,
)
from .textutil import normalize_phrase

_ARTICLES = ("a", "an", "the")


def article_for(phrase: str) -> str:
    """Indefinite article by leading vowel letter."""
    return "an" if phrase[0] in "aeiou" else "a"


def _check_surface(phrase: str, what: str, is_context: bool = False) -> None:
    # commas delimit clauses and "in a|an" delimits the context, so neither
    # may occur inside a phrase that should survive a render/parse round trip
    if "," in phrase:
        raise ValueError(f"{what} {phrase!r} contains a comma")
    if is_context:
        tokens = phrase.split()
        for i, tok in enumerate(tokens[:-1]):
            if tok == "in" and tokens[i + 1] in ("a", "an"):
                raise ValueError(f"{what} {phrase!r} contains an 'in a' marker")


def _normalized_context(context: str) -> str:
    context = normalize_phrase(context)
    if not context:
        raise ValueError("context must be non-empty")
    _check_surface(context, "context", is_context=True)
    return context


@dataclass(frozen=True)
class RelationQuadruple:
    """One relation fact over noun phrases: subject, kind, object(s), context."""

    subject: str
    kind: RelationKind
    objects: tuple[str, ...]
    context: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", RelationKind(self.kind))
        objects = (self.objects,) if isinstance(self.objects, str) else tuple(self.objects)
        objects = tuple(normalize_phrase(o) for o in objects)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "subject", normalize_phrase(self.subject))
        if self.context is not None:
            object.__setattr__(self, "context", _normalized_context(self.context))
        expected = 2 if self.kind is RelationKind.BETWEEN else 1
        if len(objects) != expected:
            raise ValueError(
                f"{self.kind.value} takes {expected} object phrase(s), got {len(objects)}"
            )
        if not self.subject or not all(objects):
            raise ValueError("noun phrases must be non-empty")
        for phrase in (self.subject, *objects):
            _check_surface(phrase, "noun phrase")

    @property
    def phrases(self) -> tuple[str, ...]:
        return (self.subject, *self.objects)


@dataclass(frozen=True)
class PromptSpec:
    """One or two relation clauses under a single context.

    A two-clause spec must share at least one noun phrase between clauses;
    the anchor is the first of (first clause's objects, then its subject)
    that reappears in the second clause.
    """

    clauses: tuple[RelationQuadruple, ...]
    context: str | None = None

    def __post_init__(self) -> None:
        clauses = tuple(self.clauses)
        if not 1 <= len(clauses) <= 2:
            raise ValueError("a prompt carries one or two clauses")
        context = self.context if self.context is not None else clauses[0].context
        if context is None:
            raise ValueError("no context given and the first clause carries none")
        context = _normalized_context(context)
        clauses = tuple(replace(c, context=context) for c in clauses)
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "context", context)
        if len(clauses) == 2 and self.anchor is None:
            raise ValueError("second clause shares no noun phrase with the first")

    @property
    def is_complex(self) -> bool:
        return len(self.clauses) == 2

    @property
    def anchor(self) -> str | None:
        if len(self.clauses) != 2:
            return None
        first, second = self.clauses
        present = set(second.phrases)
        for phrase in (*first.objects, first.subject):
            if phrase in present:
                return phrase
        return None


# ---------------------------------------------------------------------------
# rendering

def _noun_phrase(phrase: str, anchored: frozenset[str]) -> str:
    if phrase in anchored:
        return f"the {phrase}"
    return f"{article_for(phrase)} {phrase}"


def _render_clause(
    q: RelationQuadruple, lex: PhraseLexicon, anchored: frozenset[str] = frozenset()
) -> str:
    phrase = lex.canonical_phrase(q.kind)
    subject = _noun_phrase(q.subject, anchored)
    if q.kind is RelationKind.BETWEEN:
        f1, f2 = q.objects
        if f1 == f2:
            plural = pluralize(f1)
            flank = f"the two {plural}" if f1 in anchored else f"two {plural}"
        else:
            flank = f"{_noun_phrase(f1, anchored)} and {_noun_phrase(f2, anchored)}"
        return f"{subject} {phrase} {flank}"
    return f"{subject} {phrase} {_noun_phrase(q.objects[0], anchored)}"


def render_prompt(spec: PromptSpec, lex: PhraseLexicon | None = None) -> str:
    lex = lex or default_phrase_lexicon()
    parts = [_render_clause(spec.clauses[0], lex)]
    if spec.is_complex:
        parts.append(_render_clause(spec.clauses[1], lex, frozenset({spec.anchor})))
    body = ", ".join(parts)
    return f"{body[0].upper()}{body[1:]} in {article_for(spec.context)} {spec.context}"


# ---------------------------------------------------------------------------
# parsing

def tokenize_prompt(text: str) -> list[str]:
    return text.lower().replace(",", " , ").split()


def _scan_relation(
    tokens: Sequence[str],
    index: Mapping[tuple[str, ...], RelationKind],
    longest: int,
    start: int,
) -> tuple[int, int, RelationKind] | None:
    """Leftmost-longest relation phrase at position >= start."""
    for p in range(start, len(tokens)):
        for n in range(min(longest, len(tokens) - p), 0, -1):
            kind = index.get(tuple(tokens[p : p + n]))
            if kind is not None:
                return p, n, kind
    return None


def _find_context_marker(tokens: Sequence[str]) -> int | None:
    for i in range(len(tokens) - 3, -1, -1):
        if tokens[i] == "in" and tokens[i + 1] in ("a", "an"):
            return i
    return None


@dataclass(frozen=True)
class _Slot:
    phrase: str
    definite: bool
    position: int


def _parse_noun_phrase(tokens: Sequence[str], offset: int) -> _Slot:
    if len(tokens) < 2 or tokens[0] not in _ARTICLES:
        raise ParseError(
            "expected an article ('a', 'an' or 'the') starting a noun phrase",
            position=offset,
        )
    return _Slot(" ".join(tokens[1:]), tokens[0] == "the", offset)


def _parse_between_objects(tokens: Sequence[str], offset: int) -> list[_Slot]:
    if not tokens:
        raise ParseError("missing objects after 'between'", position=offset)
    head = 2 if tokens[:2] == ["the", "two"] else 1 if tokens[0] == "two" else 0
    if head:
        plural = " ".join(tokens[head:])
        if not plural:
            raise ParseError("missing plural object after 'two'", position=offset + head)
        phrase = singularize(plural)
        if phrase is None:
            raise ParseError(
                f"cannot read {plural!r} as a plural noun", position=offset + head
            )
        slot = _Slot(phrase, head == 2, offset)
        return [slot, slot]
    for i, tok in enumerate(tokens):
        if tok != "and":
            continue
        try:
            first = _parse_noun_phrase(tokens[:i], offset)
            second = _parse_noun_phrase(tokens[i + 1 :], offset + i + 1)
        except ParseError:
            continue
        return [first, second]
    raise ParseError("expected 'X and Y' after 'between'", position=offset)


def _parse_clause(
    tokens: Sequence[str],
    offset: int,
    index: Mapping[tuple[str, ...], RelationKind],
    longest: int,
) -> tuple[RelationKind, list[_Slot]]:
    # subject needs an article plus at least one token, so the relation
    # phrase cannot start before position 2
    found = _scan_relation(tokens, index, longest, start=2)
    if found is None:
        raise ParseError("no relation phrase in clause", position=offset)
    p, n, kind = found
    slots = [_parse_noun_phrase(tokens[:p], offset)]
    tail = tokens[p + n :]
    if kind is RelationKind.BETWEEN:
        slots.extend(_parse_between_objects(tail, offset + p + n))
    else:
        slots.append(_parse_noun_phrase(tail, offset + p + n))
    return kind, slots


def _split_clauses(tokens: Sequence[str]) -> list[tuple[int, list[str]]]:
    segments: list[tuple[int, list[str]]] = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok == ",":
            segments.append((start, list(tokens[start:i])))
            start = i + 1
    segments.append((start, list(tokens[start:])))
    if len(segments) > 2:
        raise ParseError("more than two clauses", position=segments[2][0] - 1)
    for offset, segment in segments:
        if not segment:
            raise ParseError("empty clause", position=offset)
    return segments


def parse_prompt(text: str, lex: PhraseLexicon | None = None) -> PromptSpec:
    lex = lex or default_phrase_lexicon()
    tokens = tokenize_prompt(text)
    if not tokens:
        raise ParseError("empty prompt")
    index = lex.token_index()
    longest = lex.max_phrase_tokens()
    if _scan_relation(tokens, index, longest, start=0) is None:
        raise ParseError("no relation phrase found")
    marker = _find_context_marker(tokens)
    if marker is None:
        raise ParseError(
            "no trailing context ('in a ...') found", position=len(tokens) - 1
        )
    context = " ".join(tokens[marker + 2 :])

    parsed = [
        _parse_clause(segment, offset, index, longest)
        for offset, segment in _split_clauses(tokens[:marker])
    ]

    first_slots = parsed[0][1]
    for slot in first_slots:
        if slot.definite:
            raise ParseError(
                f"'the {slot.phrase}' has no antecedent in the first clause",
                position=slot.position,
            )
    if len(parsed) == 2:
        antecedents = {slot.phrase for slot in first_slots}
        second_slots = parsed[1][1]
        for slot in second_slots:
            if slot.definite and slot.phrase not in antecedents:
                raise ParseError(
                    f"'the {slot.phrase}' does not refer to the first clause",
                    position=slot.position,
                )
        if not antecedents & {slot.phrase for slot in second_slots}:
            raise ParseError("clauses share no noun phrase", position=parsed[1][1][0].position)

    clauses = tuple(
        RelationQuadruple(slots[0].phrase, kind, tuple(s.phrase for s in slots[1:]))
        for kind, slots in parsed
    )
    return PromptSpec(clauses, context=context)


# ---------------------------------------------------------------------------
# sampling

def _kind_key(key: RelationKind | str) -> RelationKind:
    return key if isinstance(key, RelationKind) else RelationKind(key)


def sample_prompt_set(
    relations: Iterable[RelationQuadruple],
    simple_counts: Mapping[RelationKind | str, int],
    complex_counts: Mapping[RelationKind | str, int] | None = None,
    *,
    seed: int,
    contexts: Sequence[str] | None = None,
) -> list[PromptSpec]:
    """Draw a reproducible prompt set from a relation pool.

    Simple prompts are drawn per kind without replacement. Complex prompts
    are keyed by the first clause's kind; the second clause is any other
    pool entry sharing a noun phrase, drawn uniformly. Quadruples without a
    context get one drawn from `contexts`, in pool order; every context is
    checked before the first draw. Subject == object is rejected for the
    four planar directional kinds, where such facts are degenerate.

    Candidates and partners are listed in ascending pool order, so a seed
    fixes the output.
    """
    rng = random.Random(seed)
    contexts = tuple(contexts) if contexts is not None else default_contexts()
    if not contexts:
        raise ValueError("contexts must be non-empty")
    contexts = tuple(_normalized_context(c) for c in contexts)

    pool: list[RelationQuadruple] = []
    context_of: list[str] = []
    for q in relations:
        if q.kind.is_directional_2d and q.subject in q.objects:
            continue
        pool.append(q)
        context_of.append(q.context if q.context is not None else rng.choice(contexts))

    by_kind: dict[RelationKind, list[int]] = {}
    # phrase -> ascending pool indices, each index once per distinct phrase
    holders: dict[str, list[int]] = {}
    for i, q in enumerate(pool):
        by_kind.setdefault(q.kind, []).append(i)
        for phrase in set(q.phrases):
            holders.setdefault(phrase, []).append(i)

    def ordered(counts: Mapping[RelationKind | str, int]) -> list[tuple[RelationKind, int]]:
        items = [(_kind_key(k), int(n)) for k, n in counts.items()]
        for kind, n in items:
            if n < 0:
                raise ValueError(f"negative count for {kind.value}")
        return sorted(items, key=lambda kn: KIND_ORDER[kn[0]])

    specs: list[PromptSpec] = []
    for kind, n in ordered(simple_counts):
        members = by_kind.get(kind, [])
        if len(members) < n:
            raise InsufficientPool(
                f"need {n} {kind.value} relations for simple prompts, pool has {len(members)}"
            )
        for i in sorted(rng.sample(members, n)):
            specs.append(PromptSpec((pool[i],), context=context_of[i]))

    for kind, n in ordered(complex_counts or {}):
        members = by_kind.get(kind, [])
        eligible = [
            i for i in members if any(len(holders[p]) > 1 for p in pool[i].phrases)
        ]
        if len(eligible) < n:
            raise InsufficientPool(
                f"need {n} {kind.value} first clauses with a phrase-sharing partner, "
                f"pool has {len(eligible)}"
            )
        for i in sorted(rng.sample(eligible, n)):
            partners = sorted(set().union(*(holders[p] for p in pool[i].phrases)) - {i})
            j = rng.choice(partners)
            specs.append(PromptSpec((pool[i], pool[j]), context=context_of[i]))
    return specs
