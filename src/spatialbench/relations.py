"""The relation vocabulary: kinds, opposite pairs, inversion and strictness.

RelationKind is the one relation vocabulary: its four 2D kinds select the
case of the directional predicates, and invert() restates any relation from
the other side of its pair ("A under B" is "B on top of A").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TypeVar

from .errors import NotInvertible

__all__ = [
    "RelationKind",
    "KIND_ORDER",
    "OPPOSITE_PAIRS",
    "invert",
    "pair_id",
    "Strictness",
    "DEFAULT_STRICTNESS",
]


class RelationKind(Enum):
    """The eight supported spatial relation kinds."""

    RIGHT = "right"
    LEFT = "left"
    TOP = "top"
    BOTTOM = "bottom"
    NEXT = "next"
    BETWEEN = "between"
    FRONT = "front"
    BEHIND = "behind"

    @property
    def is_directional_2d(self) -> bool:
        return self in _DIRECTIONAL_2D

    @property
    def is_3d(self) -> bool:
        return self in (RelationKind.FRONT, RelationKind.BEHIND)

    @property
    def has_opposite(self) -> bool:
        # Between is the only kind without an inverse form
        return self is not RelationKind.BETWEEN

    def opposite(self) -> "RelationKind":
        """Opposite side of a directional or 3D kind (Next maps to itself)."""
        return _OPPOSITE[self]


_OPPOSITE = {
    RelationKind.RIGHT: RelationKind.LEFT,
    RelationKind.LEFT: RelationKind.RIGHT,
    RelationKind.TOP: RelationKind.BOTTOM,
    RelationKind.BOTTOM: RelationKind.TOP,
    RelationKind.FRONT: RelationKind.BEHIND,
    RelationKind.BEHIND: RelationKind.FRONT,
    RelationKind.NEXT: RelationKind.NEXT,
}

_DIRECTIONAL_2D = (
    RelationKind.RIGHT,
    RelationKind.LEFT,
    RelationKind.TOP,
    RelationKind.BOTTOM,
)

# Canonical sort order for deterministic relation listings.
KIND_ORDER = {kind: index for index, kind in enumerate(RelationKind)}

# The three opposite-side pairs, in report order.
OPPOSITE_PAIRS = (
    (RelationKind.TOP, RelationKind.BOTTOM),
    (RelationKind.LEFT, RelationKind.RIGHT),
    (RelationKind.FRONT, RelationKind.BEHIND),
)

_R = TypeVar("_R")


def invert(relation: _R) -> _R:
    """The same RelationInstance or RelationQuadruple seen from its object.

    Subject and object swap and the kind becomes its opposite ("A under B" is
    "B on top of A"); Next stays Next. Between has no opposite and raises
    NotInvertible.

    The swap keeps every check of both classes (one object; valid phrases or
    distinct indices), so the copy is made without running them again.
    """
    if not relation.kind.has_opposite:
        raise NotInvertible(f"{relation.kind.value} relations have no inverse form")
    inverted = object.__new__(type(relation))
    inverted.__dict__.update(relation.__dict__, subject=relation.objects[0],
                             kind=relation.kind.opposite(), objects=(relation.subject,))
    return inverted


def pair_id(pair: tuple[RelationKind, RelationKind]) -> str:
    """The pair's key in bias tables and profiles, e.g. "top_bottom"."""
    return f"{pair[0].value}_{pair[1].value}"


@dataclass(frozen=True)
class Strictness:
    """Constraint strictness divisor; thresholds are min-extent / tau."""

    tau: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")


DEFAULT_STRICTNESS = Strictness()
