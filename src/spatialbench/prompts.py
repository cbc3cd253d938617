"""Rendering and parsing of spatially explicit urban prompts.

Grammar (case-insensitive):

  simple:  "A|An SUBJ PHRASE a|an OBJ in a|an CONTEXT"
  complex: two comma-joined clauses sharing one trailing context
  between: the object slot becomes "ART OBJ and ART OBJ", collapsing to
           "two PLURAL" (or "the two PLURAL") when both flankers are equal

The context belongs to the prompt, not to a clause: PromptSpec holds it once,
and a RelationQuadruple has none.

In a complex prompt the second clause refers back to a phrase of the first
(the anchor) with the definite article. The renderer always marks the anchor;
the parser also accepts an unmarked repetition of a shared phrase, which
occurs in detector-derived prompt sets.

The relation phrase is found by leftmost-longest token matching against the
lexicon, and the context is whatever follows the last "in a|an" marker. Both
rules keep arbitrary multiword noun phrases parseable without a noun
inventory.

parse_prompt makes one pass over one token tuple: it finds the marker,
splits the tokens before it at commas by index, and scans each clause once
for its relation phrase. A scan of the whole prompt runs only when the parse
fails, and only picks the message: with no relation phrase anywhere, that is
the error, before any other fault.

The public constructors validate and normalize every field. parse_prompt,
the rewriter (tore.transform_spec), candidate_pool, which checks each object
phrase once before its draws, and relations.invert build through
relations._unchecked instead, the one way to build a value without its
checks: their parts must already pass those checks. For the parser, its
own checks imply each __post_init__ check:

  - normalized phrases: the prompt is lower-cased and whitespace-split once,
    and every phrase and the context are single-space joins of its tokens
  - no comma in a noun phrase: clause ranges end at every comma token, and
    each noun phrase lies inside one clause range
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
from typing import Iterable, Mapping, Sequence

from .errors import InsufficientPool, ParseError
from .lexicon import default_contexts, default_phrase_lexicon, pluralize, singularize
from .relations import KIND_ORDER, RelationKind, _unchecked
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
    """One relation fact over noun phrases: subject, kind, object(s)."""

    subject: str
    kind: RelationKind
    objects: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", RelationKind(self.kind))
        objects = (self.objects,) if isinstance(self.objects, str) else tuple(self.objects)
        objects = tuple(normalize_phrase(o) for o in objects)
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "subject", normalize_phrase(self.subject))
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


def _normalized_object(phrase: str) -> str:
    """phrase normalized as RelationQuadruple leaves it; a ValueError if that refuses it."""
    return RelationQuadruple(phrase, RelationKind.NEXT, (phrase,)).subject


@dataclass(frozen=True)
class PromptSpec:
    """One or two relation clauses under a single context.

    A two-clause spec must share at least one noun phrase between clauses;
    the anchor is the first of (first clause's objects, then its subject)
    that reappears in the second clause.
    """

    clauses: tuple[RelationQuadruple, ...]
    context: str

    def __post_init__(self) -> None:
        clauses = tuple(self.clauses)
        if not 1 <= len(clauses) <= 2:
            raise ValueError("a prompt carries one or two clauses")
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "context", _normalized_context(self.context))
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

_Index = Mapping[tuple[str, ...], RelationKind]


def _scan(tokens: tuple[str, ...], lo: int, hi: int, index: _Index,
          longest: int) -> tuple[int, int, RelationKind] | None:
    """Leftmost-longest relation phrase in tokens[lo:hi], as (start, stop, kind)."""
    get = index.get
    for p in range(lo, hi):
        for stop in range(min(p + longest, hi), p, -1):
            kind = get(tokens[p:stop])
            if kind is not None:
                return p, stop, kind
    return None


def _slot(tokens: tuple[str, ...], lo: int, hi: int) -> tuple[str, bool, int]:
    """The noun phrase tokens[lo:hi] as (phrase, definite, position)."""
    if hi - lo < 2 or tokens[lo] not in _ARTICLES:
        raise ParseError("expected an article ('a', 'an' or 'the') starting a noun phrase",
                         position=lo)
    return " ".join(tokens[lo + 1 : hi]), tokens[lo] == "the", lo


def _between_slots(tokens: tuple[str, ...], lo: int, hi: int) -> list[tuple[str, bool, int]]:
    """The flankers in tokens[lo:hi]: "ART X and ART Y", or "[the] two PLURAL"."""
    if lo == hi:
        raise ParseError("missing objects after 'between'", position=lo)
    # tokens[hi] is "," or the marker's "in", so the pair test stays inside the range
    head = 2 if tokens[lo : lo + 2] == ("the", "two") else 1 if tokens[lo] == "two" else 0
    if head:
        plural = " ".join(tokens[lo + head : hi])
        if not plural:
            raise ParseError("missing plural object after 'two'", position=lo + head)
        phrase = singularize(plural)
        if phrase is None:
            raise ParseError(f"cannot read {plural!r} as a plural noun", position=lo + head)
        return [(phrase, head == 2, lo)] * 2
    # the first "and" with a noun phrase on each side
    if tokens[lo] in _ARTICLES:
        for i in range(lo + 2, hi - 2):
            if tokens[i] == "and" and tokens[i + 1] in _ARTICLES:
                return [_slot(tokens, lo, i), _slot(tokens, i + 1, hi)]
    raise ParseError("expected 'X and Y' after 'between'", position=lo)


def parse_prompt(text: str) -> PromptSpec:
    lex = default_phrase_lexicon()
    tokens = tuple(text.lower().replace(",", " , ").split())
    if not tokens:
        raise ParseError("empty prompt")
    index = lex.token_index()
    longest = lex.max_phrase_tokens()
    try:
        return _parse(tokens, index, longest)
    except ParseError:
        # a prompt with no relation phrase anywhere says so before any other fault
        if _scan(tokens, 0, len(tokens), index, longest) is None:
            raise ParseError("no relation phrase found") from None
        raise


def _parse(tokens: tuple[str, ...], index: _Index, longest: int) -> PromptSpec:
    end = len(tokens)
    # the context follows the last "in a|an" that has a token after it
    marker = end - 3
    while marker >= 0 and not (tokens[marker] == "in" and tokens[marker + 1] in ("a", "an")):
        marker -= 1
    if marker < 0:
        raise ParseError("no trailing context ('in a ...') found", position=end - 1)
    commas = [i for i in range(marker) if tokens[i] == ","]
    if len(commas) > 1:
        raise ParseError("more than two clauses", position=commas[1])
    bounds = [(0, commas[0]), (commas[0] + 1, marker)] if commas else [(0, marker)]
    for lo, hi in bounds:
        if lo == hi:
            raise ParseError("empty clause", position=lo)

    parsed = []
    for lo, hi in bounds:
        # the subject takes an article and a token, so the phrase starts at lo + 2 or later
        found = _scan(tokens, lo + 2, hi, index, longest)
        if found is None:
            raise ParseError("no relation phrase in clause", position=lo)
        p, stop, kind = found
        subject = _slot(tokens, lo, p)
        objects = (_between_slots(tokens, stop, hi) if kind is RelationKind.BETWEEN
                   else [_slot(tokens, stop, hi)])
        parsed.append((kind, [subject, *objects]))

    # "the X" refers back to the first clause; the first clause has nothing to refer to
    antecedents: set[str] = set()
    for second, (_, slots) in enumerate(parsed):
        for phrase, definite, position in slots:
            if definite and phrase not in antecedents:
                fault = "does not refer to" if second else "has no antecedent in"
                raise ParseError(f"'the {phrase}' {fault} the first clause", position=position)
        if second and antecedents.isdisjoint(slot[0] for slot in slots):
            raise ParseError("clauses share no noun phrase", position=slots[0][2])
        antecedents = {slot[0] for slot in slots}

    # the constructors' context check, as a ParseError at the offending token
    context = " ".join(tokens[marker + 2 :])
    if "," in tokens[marker + 2 :]:
        raise ParseError(f"context {context!r} contains a comma",
                         position=tokens.index(",", marker + 2))
    # an "in a|an" with a token after it would have been the marker
    if tokens[-2:] in (("in", "a"), ("in", "an")):
        raise ParseError(f"context {context!r} contains an 'in a' marker", position=end - 2)

    # every constructor check holds here (see the module docstring)
    clauses = tuple(_unchecked(RelationQuadruple, subject=slots[0][0], kind=kind,
                               objects=tuple(s[0] for s in slots[1:]))
                    for kind, slots in parsed)
    return _unchecked(PromptSpec, clauses=clauses, context=context)


# ---------------------------------------------------------------------------
# sampling

# Each rule's ValueError starts with the name of the argument it is about
# (size, objects, simple, complex), for a caller to put its own name there.

def _counts(what: str, counts: Mapping[RelationKind | str, int]) -> list[tuple[RelationKind, int]]:
    """counts as (kind, n) pairs in kind order; what names the mapping in an error."""
    items = [(RelationKind(k), int(n)) for k, n in counts.items()]
    for kind, n in items:
        if n < 0:
            raise ValueError(f"{what} {kind.value}={n}: count must not be negative")
    return sorted(items, key=lambda kn: KIND_ORDER[kn[0]])


def candidate_pool(
    kinds: Iterable[RelationKind | str],
    objects: Sequence[str],
    size: int,
    *,
    seed: int,
) -> list[RelationQuadruple]:
    """Draw, per kind in order, up to size distinct facts over distinct phrases of objects.

    The phrases must be distinct and pass RelationQuadruple's checks, two of
    them or, with between among the kinds, three; a kind stops at size facts
    or at as many as there are pairs of objects.
    """
    kinds = [RelationKind(k) for k in kinds]
    objects = [_normalized_object(o) for o in objects]
    if len(set(objects)) < len(objects):
        raise ValueError("objects must be distinct phrases")
    needed = 3 if RelationKind.BETWEEN in kinds else 2
    if len(objects) < needed:
        raise ValueError(f"objects lists {len(objects)} object(s); {needed} are needed"
                         + (" for between" if needed == 3 else ""))
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    rng = random.Random(seed)
    between = RelationKind.BETWEEN
    pool: list[RelationQuadruple] = []
    for kind in kinds:
        seen = set()
        ceiling = len(objects) * max(1, len(objects) - 1)
        budget = min(size, ceiling)
        while len(seen) < budget:
            picked = tuple(rng.sample(objects, 3 if kind is between else 2))
            if picked in seen:
                continue
            seen.add(picked)
            pool.append(_unchecked(RelationQuadruple, subject=picked[0], kind=kind,
                                   objects=picked[1:]))
    return pool


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
    drawn again among the rest. Each kept pool entry draws a context from
    `contexts`, in pool order, and a prompt takes the one drawn for its first
    clause; every context and count is checked before the first draw.
    Subject == object is rejected for the four planar directional kinds,
    where such facts are degenerate.

    Candidates and partners are listed in ascending pool order, so a seed
    fixes the output.
    """
    rng = random.Random(seed)
    contexts = tuple(contexts) if contexts is not None else default_contexts()
    if not contexts:
        raise ValueError("contexts must be non-empty")
    contexts = tuple(_normalized_context(c) for c in contexts)
    simple = _counts("simple", simple_counts)
    complex_ = _counts("complex", complex_counts or {})

    pool = [q for q in relations if not (q.kind.is_directional_2d and q.subject in q.objects)]
    context_of = [rng.choice(contexts) for _ in pool]

    by_kind: dict[RelationKind, list[int]] = {}
    # phrase -> ascending pool indices, each index once per distinct phrase
    holders: dict[str, list[int]] = {}
    for i, q in enumerate(pool):
        by_kind.setdefault(q.kind, []).append(i)
        for phrase in set(q.phrases):
            holders.setdefault(phrase, []).append(i)

    specs: list[PromptSpec] = []
    for kind, n in simple:
        members = by_kind.get(kind, [])
        if len(members) < n:
            raise InsufficientPool(
                f"need {n} {kind.value} relations for simple prompts, pool has {len(members)}"
            )
        for i in sorted(rng.sample(members, n)):
            specs.append(PromptSpec((pool[i],), context=context_of[i]))

    for kind, n in complex_:
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
