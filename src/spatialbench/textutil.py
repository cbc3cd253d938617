"""Small text normalization helpers used across modules."""

from __future__ import annotations

import unicodedata

from .errors import FormatError


def normalize_phrase(text: str) -> str:
    """Lowercase, trim, collapse internal whitespace."""
    return " ".join(text.split()).lower()


def ascii_fold(text: str) -> str:
    """Strip accents/diacritics down to ASCII (lossy for non-Latin scripts)."""
    return unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")


def decode_line(data: bytes, line: int) -> str:
    """Decode one UTF-8 line of a file; a bad byte raises FormatError naming the line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"invalid UTF-8 byte 0x{data[exc.start]:02x} at byte "
                          f"offset {exc.start}", line=line) from None
