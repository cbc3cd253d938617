"""Shared hypothesis strategies for box-, scene- and prompt-valued tests."""

from __future__ import annotations

from hypothesis import strategies as st

from spatialbench.geometry import BoundingBox
from spatialbench.lexicon import default_contexts, default_objects
from spatialbench.prompts import PromptSpec, RelationQuadruple
from spatialbench.relations import RelationKind, Strictness

OBJECTS = default_objects()
CONTEXTS = default_contexts()
KINDS = tuple(RelationKind)

# Coordinates stay modest so thresholds and distances remain well away from
# float funny business; the invariants under test do not depend on scale.
_POS = st.floats(min_value=0.0, max_value=900.0, allow_nan=False, allow_infinity=False)
_EXTENT = st.floats(min_value=0.5, max_value=400.0, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw) -> BoundingBox:
    x = draw(_POS)
    y = draw(_POS)
    w = draw(_EXTENT)
    h = draw(_EXTENT)
    return BoundingBox(x, y, x + w, y + h)


@st.composite
def integer_boxes(draw, grid: int = 8) -> BoundingBox:
    x0, x1 = sorted(draw(st.tuples(st.integers(0, grid), st.integers(0, grid))))
    y0, y1 = sorted(draw(st.tuples(st.integers(0, grid), st.integers(0, grid))))
    if x0 == x1:
        x1 += 1
    if y0 == y1:
        y1 += 1
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


def strictness() -> st.SearchStrategy[Strictness]:
    return st.floats(min_value=0.5, max_value=10.0, allow_nan=False).map(Strictness)


@st.composite
def quadruples(draw) -> RelationQuadruple:
    kind = draw(st.sampled_from(KINDS))
    subject = draw(st.sampled_from(OBJECTS))
    n = 2 if kind is RelationKind.BETWEEN else 1
    objects = tuple(draw(st.sampled_from(OBJECTS)) for _ in range(n))
    return RelationQuadruple(subject, kind, objects)


@st.composite
def simple_specs(draw) -> PromptSpec:
    return PromptSpec((draw(quadruples()),), draw(st.sampled_from(CONTEXTS)))


@st.composite
def complex_specs(draw) -> PromptSpec:
    q1 = draw(quadruples())
    anchor = draw(st.sampled_from(q1.phrases))
    kind = draw(st.sampled_from(KINDS))
    n = 2 if kind is RelationKind.BETWEEN else 1
    slot = draw(st.integers(0, n))
    phrases = [
        anchor if i == slot else draw(st.sampled_from(OBJECTS)) for i in range(n + 1)
    ]
    q2 = RelationQuadruple(phrases[0], kind, tuple(phrases[1:]))
    return PromptSpec((q1, q2), draw(st.sampled_from(CONTEXTS)))


def prompt_specs() -> st.SearchStrategy[PromptSpec]:
    return st.one_of(simple_specs(), complex_specs())
