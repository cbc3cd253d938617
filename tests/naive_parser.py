"""The three-pass prompt parser that prompts.parse_prompt replaced, kept as its test oracle.

It scans the whole prompt for a relation phrase, scans backwards for the
context marker, splits the clauses into tuples of their own and scans each
again; the first clause reuses the whole-prompt hit when that hit lies
inside it. It shares the package's phrase lexicon, plural rule and
ParseError, which are the grammar's data and error contract, and builds its
result through the public, validating constructors.

It lives apart from naive_reference.py because bench/checks.py loads that
file into bench/run.py's own process, whose memory peak_rss_mb reads.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from spatialbench.errors import ParseError
from spatialbench.lexicon import default_phrase_lexicon, singularize
from spatialbench.prompts import PromptSpec, RelationQuadruple
from spatialbench.relations import RelationKind

_ARTICLES = ("a", "an", "the")


def _scan_relation(
    tokens: tuple[str, ...],
    index: Mapping[tuple[str, ...], RelationKind],
    longest: int,
    start: int,
) -> tuple[int, int, RelationKind] | None:
    """Leftmost-longest relation phrase at position >= start."""
    get = index.get
    end = len(tokens)
    for p in range(start, end):
        for stop in range(min(p + longest, end), p, -1):
            kind = get(tokens[p:stop])
            if kind is not None:
                return p, stop - p, kind
    return None


def _find_context_marker(tokens: tuple[str, ...]) -> int | None:
    for i in range(len(tokens) - 3, -1, -1):
        if tokens[i] == "in" and tokens[i + 1] in ("a", "an"):
            return i
    return None


class _Slot(NamedTuple):
    phrase: str
    definite: bool
    position: int


def _parse_noun_phrase(tokens: tuple[str, ...], offset: int) -> _Slot:
    if len(tokens) < 2 or tokens[0] not in _ARTICLES:
        raise ParseError(
            "expected an article ('a', 'an' or 'the') starting a noun phrase",
            position=offset,
        )
    return _Slot(" ".join(tokens[1:]), tokens[0] == "the", offset)


def _parse_between_objects(tokens: tuple[str, ...], offset: int) -> list[_Slot]:
    if not tokens:
        raise ParseError("missing objects after 'between'", position=offset)
    head = 2 if tokens[:2] == ("the", "two") else 1 if tokens[0] == "two" else 0
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
    tokens: tuple[str, ...],
    offset: int,
    index: Mapping[tuple[str, ...], RelationKind],
    longest: int,
    found: tuple[int, int, RelationKind] | None = None,
) -> tuple[RelationKind, list[_Slot]]:
    """Parse one clause; found, when given, is its relation phrase as a scan would find it."""
    if found is None:
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


def _split_clauses(tokens: tuple[str, ...]) -> list[tuple[int, tuple[str, ...]]]:
    segments: list[tuple[int, tuple[str, ...]]] = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok == ",":
            segments.append((start, tokens[start:i]))
            start = i + 1
    segments.append((start, tokens[start:]))
    if len(segments) > 2:
        raise ParseError("more than two clauses", position=segments[2][0] - 1)
    for offset, segment in segments:
        if not segment:
            raise ParseError("empty clause", position=offset)
    return segments


def _check_context(tokens: tuple[str, ...], start: int) -> None:
    """The context check of the constructors, as a ParseError at the offending token."""
    context = tokens[start:]
    if "," in context:
        raise ParseError(f"context {' '.join(context)!r} contains a comma",
                         position=start + context.index(","))
    # an "in a|an" with a token after it would have been the marker
    if context[-2:] in (("in", "a"), ("in", "an")):
        raise ParseError(f"context {' '.join(context)!r} contains an 'in a' marker",
                         position=len(tokens) - 2)


def naive_parse_prompt(text: str) -> PromptSpec:
    lex = default_phrase_lexicon()
    tokens = tuple(text.lower().replace(",", " , ").split())
    if not tokens:
        raise ParseError("empty prompt")
    index = lex.token_index()
    longest = lex.max_phrase_tokens()
    first = _scan_relation(tokens, index, longest, start=0)
    if first is None:
        raise ParseError("no relation phrase found")
    marker = _find_context_marker(tokens)
    if marker is None:
        raise ParseError(
            "no trailing context ('in a ...') found", position=len(tokens) - 1
        )

    segments = _split_clauses(tokens[:marker])
    # No phrase starts before the first hit, so a hit at position 2 or later
    # that ends inside the first clause is also that clause's own scan result.
    p, n, _ = first
    reuse = first if p >= 2 and p + n <= len(segments[0][1]) else None
    parsed = [
        _parse_clause(segment, offset, index, longest, reuse if offset == 0 else None)
        for offset, segment in segments
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
    _check_context(tokens, marker + 2)

    # built through the public, validating constructors
    context = " ".join(tokens[marker + 2 :])
    clauses = tuple(
        RelationQuadruple(slots[0].phrase, kind, tuple(s.phrase for s in slots[1:]))
        for kind, slots in parsed
    )
    return PromptSpec(clauses, context)

