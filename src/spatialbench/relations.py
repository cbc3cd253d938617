"""The relation vocabulary: kinds, opposite pairs, inversion and strictness.

RelationKind is the one relation vocabulary: its four 2D kinds select the
case of the directional predicates, and invert() restates any relation from
the other side of its pair ("A under B" is "B on top of A").

A value is checked once, where it enters the package: _unchecked is the one
way to build a frozen dataclass value from parts that already pass its checks.
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
    return _unchecked(type(relation), subject=relation.objects[0],
                      kind=relation.kind.opposite(), objects=(relation.subject,))


def _unchecked(cls: type[_R], **fields) -> _R:
    """A value of the frozen dataclass cls from fields that already pass its checks.

    The fields, as __init__ would leave them, go in __dict__ with no check.
    """
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


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
