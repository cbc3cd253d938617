"""Opposite-side prompt rewriting driven by measured accuracies.

Generative models render the two sides of an opposite pair (top/bottom,
left/right, front/behind) with different reliability. A clause asking for the
weaker side is semantically identical to its flipped form ("A bottom B" ==
"B top A"), so rewriting to the stronger side changes nothing about the
requested scene while moving the request onto ground the model handles
better. Flipping operates on parsed clauses, never on raw text, so noun
phrases are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .errors import FormatError, MissingRelation, ParseError
from .prompts import PromptSpec, parse_prompt, render_prompt
from .relations import OPPOSITE_PAIRS, RelationKind, _unchecked, invert, pair_id
from .textutil import is_number, json_echo, json_value

if TYPE_CHECKING:  # evaluation loads the scoring modules, which rewriting never needs
    from .evaluation import BenchReport

__all__ = [
    "BiasProfile",
    "ToreConfig",
    "PAIR_IDS",
    "transform_spec",
    "transform_prompt",
    "compute_bias_profile",
    "load_bias_profile",
    "builtin_profile",
]

PAIR_IDS = tuple(pair_id(pair) for pair in OPPOSITE_PAIRS)

BUILTIN_PROFILES = ("flux1", "sdxl")

_PAIRS_BY_ID = dict(zip(PAIR_IDS, OPPOSITE_PAIRS))


@dataclass(frozen=True)
class BiasProfile:
    """A bias table, {pair_id: {side: accuracy}}, as bias-report writes it.

    The table is checked once, here: every key names an opposite pair, and
    every pair gives both of its sides an accuracy in [0, 1]. A profile's
    text is json_document(profile.table). The preferred side of a pair is
    the strictly greater one; a pair not in the table, or with equal
    accuracies, has no preference, which disables flipping for it.
    """

    table: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        if not isinstance(self.table, dict):
            raise FormatError("bias profile must be a JSON object")
        for key, sides in self.table.items():
            pair = _PAIRS_BY_ID.get(key)
            if pair is None:
                raise FormatError(f"unknown opposite pair {key!r}", field=key)
            if not isinstance(sides, dict):
                raise FormatError("pair entry must map sides to accuracies", field=key)
            for kind in pair:
                if kind.value not in sides:
                    raise FormatError(f"pair {key!r} lacks side {kind.value!r}", field=key)
                value = sides[kind.value]
                if not is_number(value) or not 0 <= value <= 1:
                    raise FormatError(f"accuracy must be a number in [0, 1], got {json_echo(value)}",
                                      field=f"{key}.{kind.value}")

    def preferred(self, pair: tuple[RelationKind, RelationKind]) -> RelationKind | None:
        sides = self.table.get(pair_id(pair))
        if sides is None:
            return None
        a, b = pair
        if sides[a.value] > sides[b.value]:
            return a
        if sides[b.value] > sides[a.value]:
            return b
        return None

    def dispreferred(self, pair: tuple[RelationKind, RelationKind]) -> RelationKind | None:
        best = self.preferred(pair)
        return None if best is None else best.opposite()


@dataclass(frozen=True)
class ToreConfig:
    """A profile and the pairs it may flip.

    flip_kinds, derived once, holds the dispreferred side of every enabled
    pair that has a preference: the kinds a clause is flipped away from.
    """

    profile: BiasProfile
    enabled_pairs: frozenset[str] = frozenset(PAIR_IDS)
    flip_kinds: frozenset[RelationKind] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        enabled = frozenset(self.enabled_pairs)
        unknown = ", ".join(sorted(enabled - set(PAIR_IDS)))
        if unknown or not enabled:
            problem = f"unknown pair ids {unknown}" if unknown else "no pair ids given"
            raise ValueError(f"{problem}; valid ids: {', '.join(PAIR_IDS)}")
        object.__setattr__(self, "enabled_pairs", enabled)
        sides = (self.profile.dispreferred(p) for p in OPPOSITE_PAIRS if pair_id(p) in enabled)
        object.__setattr__(self, "flip_kinds", frozenset(s for s in sides if s is not None))


def transform_spec(spec: PromptSpec, cfg: ToreConfig) -> tuple[PromptSpec, bool]:
    """Flip every clause sitting on a dispreferred side; report whether any did.

    Flipping preserves each clause's phrase set, so a complex prompt keeps
    its shared anchor and the result needs no new checks.
    """
    flip = cfg.flip_kinds
    if not any(q.kind in flip for q in spec.clauses):
        return spec, False
    clauses = tuple(invert(q) if q.kind in flip else q for q in spec.clauses)
    return _unchecked(PromptSpec, clauses=clauses, context=spec.context), True


def transform_prompt(text: str, cfg: ToreConfig) -> str:
    """Rewrite dispreferred-side clauses in a prompt string.

    A prompt needing no flip is returned untouched, byte for byte; otherwise
    the whole prompt is re-rendered with canonical phrases. A line outside the
    grammar passes through unchanged.
    """
    try:
        spec = parse_prompt(text)
    except ParseError:
        return text
    out, changed = transform_spec(spec, cfg)
    if not changed:
        return text
    return render_prompt(out)


def compute_bias_profile(report: BenchReport) -> BiasProfile:
    """Read a profile off a benchmark report's bias table.

    The table already balances the simple and complex subsets. A pair with
    neither side measured is skipped; a pair with exactly one side is an
    error, since no preference can be derived for it.
    """
    for pair in OPPOSITE_PAIRS:
        have = [k for k in pair if k.value in report.soft]
        if len(have) == 1:
            raise MissingRelation(
                f"report covers {have[0].value} but not its opposite"
            )
    if not report.bias:
        raise MissingRelation("report covers no opposite pair")
    return BiasProfile(report.bias)


def load_bias_profile(path: str | Path) -> BiasProfile:
    try:
        return BiasProfile(json_value(Path(path).read_bytes()))
    except OSError as exc:
        raise FormatError(f"cannot read bias profile {path}: {exc}") from None
    except FormatError as exc:
        raise FormatError(f"bias profile {path}: {exc.reason}", exc.line, exc.field) from None


def builtin_profile(name: str) -> BiasProfile:
    if name not in BUILTIN_PROFILES:
        raise FormatError(
            f"unknown builtin profile {name!r}; available: {', '.join(BUILTIN_PROFILES)}"
        )
    resource = resources.files("spatialbench").joinpath("data", "profiles", f"{name}.json")
    return BiasProfile(json_value(resource.read_bytes()))
