"""Noun and relation-phrase inventories for the urban prompt grammar.

The phrase lexicon maps each relation kind to one canonical surface phrase
plus accepted variants. Phrases are matched at token level, so a multiword
variant like "on the right side of" never collides with object nouns that
merely contain one of its words.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .errors import FormatError, UnknownKind
from .geometry import RelationKind
from .textutil import normalize_phrase

_IRREGULAR_PLURALS = {
    "person": "people",
    "man": "men",
    "woman": "women",
    "child": "children",
}
_IRREGULAR_SINGULARS = {v: k for k, v in _IRREGULAR_PLURALS.items()}


def _pluralize_word(word: str) -> str:
    if word in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[word]
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    if len(word) > 1 and word.endswith("y") and word[-2] not in "aeiou":
        return word[:-1] + "ies"
    return word + "s"


def _singularize_word(word: str) -> str | None:
    candidates = []
    if word in _IRREGULAR_SINGULARS:
        candidates.append(_IRREGULAR_SINGULARS[word])
    if word.endswith("ies"):
        candidates.append(word[:-3] + "y")
    if word.endswith("es"):
        candidates.append(word[:-2])
    if word.endswith("s"):
        candidates.append(word[:-1])
    for candidate in candidates:
        if candidate and _pluralize_word(candidate) == word:
            return candidate
    return None


def pluralize(phrase: str) -> str:
    """Pluralize the final word of a noun phrase ("garage door" -> "garage doors")."""
    head, _, last = phrase.rpartition(" ")
    plural = _pluralize_word(last)
    return f"{head} {plural}" if head else plural


def singularize(phrase: str) -> str | None:
    """Invert pluralize on the final word; None when no candidate round-trips."""
    head, _, last = phrase.rpartition(" ")
    singular = _singularize_word(last)
    if singular is None:
        return None
    return f"{head} {singular}" if head else singular


@dataclass(frozen=True)
class PhraseLexicon:
    """Canonical phrase plus variants per relation kind.

    entries maps kind -> (canonical, variant, variant, ...). A lexicon may
    cover only a subset of kinds; render and parse report UnknownKind when
    asked about the rest.
    """

    entries: Mapping[RelationKind, tuple[str, ...]]

    def __post_init__(self) -> None:
        seen: dict[str, RelationKind] = {}
        clean: dict[RelationKind, tuple[str, ...]] = {}
        for kind, phrases in self.entries.items():
            if not phrases:
                raise ValueError(f"no phrases for {kind.value}")
            normalized = tuple(normalize_phrase(p) for p in phrases)
            for phrase in normalized:
                if not phrase:
                    raise ValueError(f"empty phrase for {kind.value}")
                if phrase in seen:
                    raise ValueError(
                        f"phrase {phrase!r} claimed by both {seen[phrase].value} and {kind.value}"
                    )
                seen[phrase] = kind
            clean[kind] = normalized
        object.__setattr__(self, "entries", clean)
        # parse_prompt reads both on every call, so they are built once here
        index = {tuple(phrase.split()): kind for phrase, kind in seen.items()}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_longest", max(map(len, index), default=0))

    def kinds(self) -> tuple[RelationKind, ...]:
        return tuple(self.entries)

    def canonical_phrase(self, kind: RelationKind) -> str:
        try:
            return self.entries[kind][0]
        except KeyError:
            raise UnknownKind(f"lexicon has no phrases for kind {kind.value!r}") from None

    def accepted_phrases(self, kind: RelationKind) -> tuple[str, ...]:
        try:
            return self.entries[kind]
        except KeyError:
            raise UnknownKind(f"lexicon has no phrases for kind {kind.value!r}") from None

    def token_index(self) -> Mapping[tuple[str, ...], RelationKind]:
        """All accepted phrases as token tuples, for longest-match scanning."""
        return MappingProxyType(self._index)

    def max_phrase_tokens(self) -> int:
        return self._longest


def _data_path(name: str):
    return resources.files("spatialbench").joinpath("data", name)


def load_phrase_lexicon(path: str | Path | None = None) -> PhraseLexicon:
    """Read a kind -> {canonical, variants[]} JSON file."""
    src = Path(path).read_text(encoding="utf-8") if path else _data_path(
        "relation_phrases.json"
    ).read_text(encoding="utf-8")
    try:
        raw = json.loads(src)
    except json.JSONDecodeError as exc:
        raise FormatError(f"phrase lexicon is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError("phrase lexicon must be a JSON object")
    entries: dict[RelationKind, tuple[str, ...]] = {}
    for key, value in raw.items():
        try:
            kind = RelationKind(key)
        except ValueError:
            raise FormatError(f"unknown relation kind {key!r}", field=key) from None
        if not isinstance(value, dict) or "canonical" not in value:
            raise FormatError("each entry needs a 'canonical' phrase", field=key)
        variants = value.get("variants", [])
        if not isinstance(variants, list):
            raise FormatError("'variants' must be a list", field=key)
        entries[kind] = (str(value["canonical"]), *map(str, variants))
    return PhraseLexicon(entries)


def load_object_list(path: str | Path | None = None) -> tuple[str, ...]:
    """Read a newline-delimited noun-phrase list; blank lines are skipped."""
    src = Path(path).read_text(encoding="utf-8") if path else _data_path(
        "urban_objects.txt"
    ).read_text(encoding="utf-8")
    phrases = []
    seen = set()
    for line in src.splitlines():
        phrase = normalize_phrase(line)
        if not phrase:
            continue
        if phrase in seen:
            raise FormatError(f"duplicate object phrase {phrase!r}")
        seen.add(phrase)
        phrases.append(phrase)
    if not phrases:
        raise FormatError("object list is empty")
    return tuple(phrases)


def load_context_list(path: str | Path | None = None) -> tuple[str, ...]:
    src = Path(path).read_text(encoding="utf-8") if path else _data_path(
        "contexts.txt"
    ).read_text(encoding="utf-8")
    contexts = tuple(
        normalize_phrase(line) for line in src.splitlines() if line.strip()
    )
    if not contexts:
        raise FormatError("context list is empty")
    return contexts


@lru_cache(maxsize=None)
def default_phrase_lexicon() -> PhraseLexicon:
    return load_phrase_lexicon()


@lru_cache(maxsize=None)
def default_objects() -> tuple[str, ...]:
    return load_object_list()


@lru_cache(maxsize=None)
def default_contexts() -> tuple[str, ...]:
    return load_context_list()
