"""Caption filtering, and the JSON Lines reader and writer that sceneio shares.

Captions travel as JSONL, {"caption": ..., "image": ..., "source": ...} per
line, with only caption required. Nothing here needs numpy.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import FormatError
from .textutil import ascii_fold, decode_line, normalize_phrase

__all__ = [
    "CaptionRecord",
    "ObjectLexicon",
    "filter_captions",
    "load_captions",
    "caption_to_dict",
    "write_jsonl",
]


@dataclass(frozen=True)
class CaptionRecord:
    """A caption with its image reference and source id."""

    caption: str
    image: str = ""
    source: str = ""

    def __post_init__(self):
        if not self.caption.strip():
            raise ValueError("caption must be non-empty")


@dataclass(frozen=True)
class ObjectLexicon:
    """Normalized object and context phrases used by the caption filter."""

    objects: frozenset[str]
    contexts: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "objects", frozenset(self.objects))
        object.__setattr__(self, "contexts", frozenset(self.contexts))
        for name, phrases in (("objects", self.objects), ("contexts", self.contexts)):
            if not phrases:
                raise ValueError(f"{name} must be non-empty")
            for p in phrases:
                if normalize_phrase(p) != p or not p:
                    raise ValueError(f"{name} entry {p!r} is not normalized")


_WORD_RE = re.compile(r"[a-z0-9]+")


def _words(text: str) -> list[str]:
    return _WORD_RE.findall(ascii_fold(text).lower())


def _contains_words(words: Sequence[str], phrase: Sequence[str]) -> bool:
    n = len(phrase)
    return any(list(words[i:i + n]) == list(phrase) for i in range(len(words) - n + 1))


def filter_captions(records: Iterable[CaptionRecord], lex: ObjectLexicon) -> list[CaptionRecord]:
    """Keep captions mentioning at least one object and one context phrase.

    Matching is whole-word on ASCII-folded lowercase text, so "business"
    does not match the object "bus". Input order is preserved.
    """
    object_words = [tuple(_words(p)) for p in sorted(lex.objects)]
    context_words = [tuple(_words(p)) for p in sorted(lex.contexts)]
    kept = []
    for record in records:
        words = _words(record.caption)
        if any(_contains_words(words, p) for p in object_words) and any(
            _contains_words(words, p) for p in context_words
        ):
            kept.append(record)
    return kept


def load_captions(path: str | Path) -> list[CaptionRecord]:
    records = []
    for line_no, obj in _iter_jsonl(path):
        if not isinstance(obj, dict):
            raise FormatError("caption record must be a JSON object", line=line_no)
        caption = _req_str(obj, "caption", line_no)
        image = _opt_str(obj, "image", line_no) or ""
        source = _opt_str(obj, "source", line_no) or ""
        try:
            records.append(CaptionRecord(caption, image, source))
        except ValueError as exc:
            raise FormatError(str(exc), line=line_no, field="caption") from None
    return records


def caption_to_dict(record: CaptionRecord) -> dict:
    out = {"caption": record.caption}
    if record.image:
        out["image"] = record.image
    if record.source:
        out["source"] = record.source
    return out


# ---------------------------------------------------------------------------
# JSONL plumbing

def _iter_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    # lines end at b"\n" as JSON Lines specifies; decoding line by line lets a
    # bad byte be reported with its line number
    with open(path, "rb") as fh:
        for line_no, data in enumerate(fh, start=1):
            raw = decode_line(data, line_no).strip()
            if not raw:
                continue
            try:
                yield line_no, json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc.msg}", line=line_no) from None
            except ValueError as exc:  # an integer past int's digit limit
                raise FormatError(f"invalid JSON: {exc}", line=line_no) from None


def write_jsonl(dest: IO[str] | str | Path, objs: Iterable[Mapping | str]) -> None:
    """Write canonical JSON Lines: sorted keys, one object per line.

    A str item is a line already encoded that way, and is written as it is.
    """
    if hasattr(dest, "write"):
        for obj in objs:
            line = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
            dest.write(line + "\n")
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            write_jsonl(fh, objs)


def _req_str(obj: Mapping, key: str, line_no: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value.strip():
        raise FormatError(f"{key} must be a non-empty string", line=line_no, field=key)
    return value


def _opt_str(obj: Mapping, key: str, line_no: int) -> str | None:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise FormatError(f"{key} must be a string", line=line_no, field=key)
    return value
