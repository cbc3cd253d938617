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

The public constructors validate and normalize every field. parse_prompt
and the rewriter (tore.transform_spec) build through _trusted_quadruple and
_trusted_spec instead, and relations.invert copies its input; none of them
checks anything, so their parts must already pass those checks. For the
parser, its own checks imply each __post_init__ check:

  - normalized phrases: the prompt is lower-cased and whitespace-split once,
    and every phrase and the context are single-space joins of its tokens
  - no comma in a noun phrase: clauses are split at every comma token
  - non-empty noun phrases: an article must be followed by a token, and
    "two PLURAL" needs a plural that singularizes to a non-empty phrase
  - one object, or two for between: the relation phrase decides the slots
  - one or two clauses: a third clause is a parse error
  - a shared noun phrase in a complex prompt: the antecedent check
  - a non-empty context without "in a|an": the context follows the last
    marker that has a token after it, so the only marker it can hold is a
    trailing "in a|an"; that and a comma the parser rejects itself, after
    the clause checks
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InsufficientPool, ParseError
from .lexicon import default_contexts, default_phrase_lexicon, pluralize, singularize
from .relations import KIND_ORDER, RelationKind
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


def _trusted_quadruple(
    subject: str, kind: RelationKind, objects: tuple[str, ...], context: str | None = None
) -> RelationQuadruple:
    """A RelationQuadruple from parts that already passed its checks.

    The phrases and context must be normalized and valid, as __post_init__
    would leave them; nothing is checked or normalized again.
    """
    q = object.__new__(RelationQuadruple)
    q.__dict__.update(subject=subject, kind=kind, objects=objects, context=context)
    return q


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
        # each clause passed its checks when built, so only its context changes
        clauses = tuple(
            c if c.context == context
            else _trusted_quadruple(c.subject, c.kind, c.objects, context)
            for c in clauses
        )
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


def _trusted_spec(clauses: tuple[RelationQuadruple, ...], context: str) -> PromptSpec:
    """A PromptSpec from clauses and a context that already passed its checks.

    Each clause must carry the context, and a second clause must share a
    noun phrase with the first; nothing is checked again.
    """
    spec = object.__new__(PromptSpec)
    spec.__dict__.update(clauses=clauses, context=context)
    return spec


# ---------------------------------------------------------------------------
# rendering

def _noun_phrase(phrase: str, anchored: frozenset[str]) -> str:
    if phrase in anchored:
        return f"the {phrase}"
    return f"{article_for(phrase)} {phrase}"


def _render_clause(q: RelationQuadruple, anchored: frozenset[str] = frozenset()) -> str:
    phrase = default_phrase_lexicon().canonical_phrase(q.kind)
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


def render_prompt(spec: PromptSpec) -> str:
    parts = [_render_clause(spec.clauses[0])]
    if spec.is_complex:
        parts.append(_render_clause(spec.clauses[1], frozenset({spec.anchor})))
    body = ", ".join(parts)
    return f"{body[0].upper()}{body[1:]} in {article_for(spec.context)} {spec.context}"


# ---------------------------------------------------------------------------
# parsing

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


def parse_prompt(text: str) -> PromptSpec:
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

    # every constructor check holds here (see the module docstring)
    context = " ".join(tokens[marker + 2 :])
    clauses = tuple(
        _trusted_quadruple(slots[0].phrase, kind, tuple(s.phrase for s in slots[1:]), context)
        for kind, slots in parsed
    )
    return _trusted_spec(clauses, context)


# ---------------------------------------------------------------------------
# sampling

def _kind_key(key: RelationKind | str) -> RelationKind:
    return key if isinstance(key, RelationKind) else RelationKind(key)


def _contradicts(first: RelationQuadruple, second: RelationQuadruple) -> bool:
    """True iff second states the converse of first's directional or depth fact.

    That is the same kind with the roles swapped ("A right of B" then "B
    right of A"), or the opposite kind with the same roles ("A left of B").
    Next is symmetric and Between has no opposite, so neither has a
    converse; nor does a fact relating a phrase to itself.
    """
    # the phrases are compared first: they rule out almost every pair cheaply
    subject, obj = first.subject, first.objects[0]
    if second.subject == obj and second.objects == (subject,):
        swapped = True
    elif second.subject == subject and second.objects == (obj,):
        swapped = False
    else:
        return False
    kind = first.kind
    if subject == obj or not (kind.is_directional_2d or kind.is_3d):
        return False
    return second.kind is (kind if swapped else kind.opposite())


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
    pool entry sharing a noun phrase, drawn uniformly, except one that states
    the first clause's converse: when such a partner is drawn, the partner is
    drawn again among the rest. Quadruples without a
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
            i for i in members
            if any(j != i and not _contradicts(pool[i], pool[j])
                   for p in pool[i].phrases for j in holders[p])
        ]
        if len(eligible) < n:
            raise InsufficientPool(
                f"need {n} {kind.value} first clauses with a phrase-sharing partner "
                f"that is not their converse, pool has {len(eligible)}"
            )
        for i in sorted(rng.sample(eligible, n)):
            partners = sorted(set().union(*(holders[p] for p in pool[i].phrases)) - {i})
            j = rng.choice(partners)
            if _contradicts(pool[i], pool[j]):
                j = rng.choice([k for k in partners if not _contradicts(pool[i], pool[k])])
            specs.append(PromptSpec((pool[i], pool[j]), context=context_of[i]))
    return specs
