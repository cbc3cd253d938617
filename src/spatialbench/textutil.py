"""Text helpers, and the one place an input file's bytes become lines and JSON values.

Every reader of a file goes through read_lines or json_value, so lines are
numbered one way and every decode fault reads one way:

- A line ends at "\n", and a "\r" just before it belongs to the ending, as
  JSON Lines specifies. No other character ends a line: a lone "\r", a form
  feed or U+2028 stays inside its line.
- A fault in the bytes or the JSON is a FormatError that names the line:
  a bad UTF-8 byte (with its byte offset in the line), a JSON syntax error,
  an integer past int's digit limit, and nesting too deep to decode.
"""

from __future__ import annotations

import json
import unicodedata
from pathlib import Path
from typing import BinaryIO, Iterator

from .errors import FormatError


def normalize_phrase(text: str) -> str:
    """Lowercase, trim, collapse internal whitespace."""
    return " ".join(text.split()).lower()


def ascii_fold(text: str) -> str:
    """Strip accents/diacritics down to ASCII (lossy for non-Latin scripts)."""
    return unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")


def _bad_byte(data: bytes, exc: UnicodeDecodeError, first_line: int) -> FormatError:
    """The fault's line, counted from data's first line, and its byte offset in that line."""
    line_start = data.rfind(b"\n", 0, exc.start) + 1
    return FormatError(f"invalid UTF-8 byte 0x{data[exc.start]:02x} at byte offset "
                       f"{exc.start - line_start}",
                       line=first_line + data.count(b"\n", 0, exc.start))


def read_lines(stream: BinaryIO) -> Iterator[tuple[int, str]]:
    """Each line of a byte stream, decoded and without its ending, with its 1-based number."""
    for line_no, data in enumerate(stream, start=1):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _bad_byte(data, exc, line_no) from None
        if text.endswith("\n"):
            text = text[:-2] if text.endswith("\r\n") else text[:-1]
        yield line_no, text


def jsonl_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each non-blank line of a JSON Lines file, stripped, with its number."""
    with open(path, "rb") as fh:
        for line_no, text in read_lines(fh):
            text = text.strip()
            if text:
                yield line_no, text


def json_value(data: str | bytes, line: int | None = None) -> object:
    """One JSON value: a JSONL line's text with its number, or a whole file's bytes.

    A whole file's fault names the line it is on where the fault has one.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise _bad_byte(data, exc, 1) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", line=line or exc.lineno) from None
    except ValueError as exc:  # an integer past int's digit limit
        raise FormatError(f"invalid JSON: {exc}", line=line) from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply", line=line) from None


def json_echo(value: object) -> str:
    """A decoded value as JSON text for an error message, cut to at most 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."
