"""Small text normalization helpers used across modules."""

from __future__ import annotations

import unicodedata
from typing import BinaryIO

from .errors import FormatError


def normalize_phrase(text: str) -> str:
    """Lowercase, trim, collapse internal whitespace."""
    return " ".join(text.split()).lower()


def ascii_fold(text: str) -> str:
    """Strip accents/diacritics down to ASCII (lossy for non-Latin scripts)."""
    return unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")


def _bad_byte(value: int, offset: int, line: int) -> FormatError:
    return FormatError(f"invalid UTF-8 byte 0x{value:02x} at byte offset {offset}", line=line)


def decode_line(data: bytes, line: int) -> str:
    """Decode one UTF-8 line of a file; a bad byte raises FormatError naming the line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _bad_byte(data[exc.start], exc.start, line) from None


def split_lines(stream: BinaryIO) -> list[str]:
    """The stream's text as str.splitlines() gives it.

    A bad byte raises FormatError naming its line and its byte offset in that
    line, both counted by the same splitlines() rule, so a lone "\r" moves a
    decode error's line number as it moves a line's.
    """
    data = stream.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; "|" stands in for the byte itself
        lines = (data[: exc.start].decode("utf-8") + "|").splitlines()
        offset = len(lines[-1].encode("utf-8")) - 1
        raise _bad_byte(data[exc.start], offset, len(lines)) from None
