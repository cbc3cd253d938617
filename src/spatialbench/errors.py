"""Exception types shared across the package.

Everything raised on purpose derives from SpatialBenchError so callers (and the
CLI) can distinguish validation failures from genuine bugs.
"""

from __future__ import annotations


class SpatialBenchError(Exception):
    """Base class for all package-level errors."""


class EmptyRegion(SpatialBenchError):
    """A box clipped to a depth map covers zero pixels."""


class NotInvertible(SpatialBenchError):
    """Relation has no opposite-side form (ternary Between)."""


class UnknownKind(SpatialBenchError):
    """PhraseLexicon has no entry for the requested relation kind."""


class ParseError(SpatialBenchError):
    """Prompt text falls outside the grammar.

    position is a token index into the whitespace-split prompt, -1 when the
    failure is not tied to a single token.
    """

    def __init__(self, reason: str, position: int = -1):
        self.reason = reason
        self.position = position
        super().__init__(f"{reason} (token {position})" if position >= 0 else reason)


class InsufficientPool(SpatialBenchError):
    """Relation pool cannot cover a requested per-kind prompt count."""


class MissingRelation(SpatialBenchError):
    """A bias computation needs a relation side that the input lacks."""


class NoSamples(SpatialBenchError):
    """A report was requested over zero records."""


class FormatError(SpatialBenchError):
    """A wire-format record is malformed.

    Carries the 1-based line number and a dotted field path when known.
    """

    def __init__(self, reason: str, line: int | None = None, field: str | None = None):
        self.reason = reason
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field:
            where.append(f"field {field}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{reason}{suffix}")


class DimensionMismatch(FormatError):
    """Depth map dimensions disagree with the scene dimensions."""
