"""Text helpers, and the one place bytes become values and values become bytes.

Every reader of a file goes through read_lines or json_value, so lines are
numbered one way and every decode fault reads one way:

- A line ends at "\n", and a "\r" just before it belongs to the ending, as
  JSON Lines specifies. No other character ends a line: a lone "\r", a form
  feed or U+2028 stays inside its line.
- A byte-order mark (U+FEFF) that opens a file is not content: it is
  dropped from the first line, and from a whole file's text, after the
  bytes decode, so a bad byte's offset counts it as the file holds it.
- A fault in the bytes or the JSON is a FormatError that names the line:
  a bad UTF-8 byte (with its byte offset in the line), a JSON syntax error,
  an integer past int's digit limit, and nesting past MAX_NESTING.

Whether a value decodes does not depend on how deep the caller's stack is:
nesting past MAX_NESTING is refused wherever it is decoded, and a value
within it that the caller's stack has no room for is decoded, or echoed in
an error message, on a fresh one.

Every output is encoded here too: JSON with sorted keys, and text as UTF-8
with "\n" line ends, whatever the locale or the stream's encoding.
"""

from __future__ import annotations

import json
import math
import re
import sys
import unicodedata
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Mapping

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
        if line_no == 1:
            text = text.removeprefix("\ufeff")
        yield line_no, text


def jsonl_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each non-blank line of a JSON Lines file, stripped, with its number."""
    with open(path, "rb") as fh:
        for line_no, text in read_lines(fh):
            text = text.strip()
            if text:
                yield line_no, text


# The deepest nesting of arrays and objects a JSON value may have.
MAX_NESTING = 512

# a JSON string, or one bracket outside strings, and how a bracket moves the depth
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def json_value(data: str | bytes, line: int | None = None) -> object:
    """One JSON value: a JSONL line's text with its number, or a whole file's bytes.

    A whole file's fault names the line it is on where the fault has one.
    """
    try:
        text = data.decode("utf-8").removeprefix("\ufeff") if isinstance(data, bytes) else data
        # only a text with more opening brackets than the bound can nest past it
        if text.count("[") + text.count("{") > MAX_NESTING:
            _check_nesting(text)
        return _stack_safe(json.loads, text)
    except UnicodeDecodeError as exc:
        raise _bad_byte(data, exc, 1) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", line=line or exc.lineno) from None
    except ValueError as exc:  # an integer past int's digit limit
        raise FormatError(f"invalid JSON: {exc}", line=line) from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply", line=line) from None


def _check_nesting(text: str) -> None:
    """Raise RecursionError if decoding text would nest past MAX_NESTING.

    A fault that the decode meets before that point is raised instead, as
    json.loads raises it, so the first fault in the text is the one reported.
    """
    depth = 0
    for match in _STRING_OR_BRACKET.finditer(text):
        depth += _DEPTH_STEP.get(match.group(), 0)
        if depth > MAX_NESTING:
            break
    else:
        return
    start = match.start()
    try:
        _stack_safe(json.loads, text[:start])  # nests MAX_NESTING deep at most
    except json.JSONDecodeError as exc:
        # the bracket opens a value only where the text before it runs out
        # waiting for one; an earlier fault, or another wait, is the text's own
        if exc.pos < start or exc.msg != "Expecting value":
            raise
        raise RecursionError from None
    # a whole value and white space come before the bracket
    raise json.JSONDecodeError("Extra data", text, start)


def _stack_safe(convert, value):
    """convert(value), json.loads or json.dumps, whatever the caller's depth.

    value nests MAX_NESTING deep at most. When the caller's stack has no room
    for it, convert runs on a new thread, whose stack starts empty.
    """
    try:
        return convert(value)
    except RecursionError:
        pass
    import threading

    out: list = []

    def run() -> None:
        try:
            out.append(convert(value))
        except BaseException as exc:  # raised again on the caller's thread
            out.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return out[0]


def is_number(value) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


_PLAIN_NUMBERS = frozenset((int, float))


def all_numbers(values: list) -> bool:
    """Every item passes is_number; plain ints and floats pass on their type alone."""
    return _PLAIN_NUMBERS.issuperset(map(type, values)) or all(map(is_number, values))


def as_float(value: int | float) -> float:
    """value as a float; an int past the float range becomes the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def json_echo(value: object) -> str:
    """A decoded value as JSON text for an error message, cut to at most 40 characters."""
    text = _stack_safe(json.dumps, value)
    return text if len(text) <= 40 else text[:37] + "..."


def json_line(value: object) -> str:
    """value as one canonical JSON Lines line, without its newline: sorted keys."""
    return json.dumps(value, sort_keys=True)


def json_document(value: object) -> str:
    """value as a JSON document: sorted keys, indent 2 and a trailing newline."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def write_jsonl(dest: IO[str] | str | Path | None, objs: Iterable[Mapping | str]) -> None:
    """Write one json_line per item to a text stream, a path or stdout (None).

    A str item is a line already encoded that way, and is written as it is.
    Each line is written as it comes, so no output is held whole.
    """
    if dest is not None and not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            return write_jsonl(fh, objs)
    write = _stdout_writer() if dest is None else dest.write
    for obj in objs:
        write((obj if isinstance(obj, str) else json_line(obj)) + "\n")


def write_utf8(dest: str | Path | None, text: str) -> None:
    """Write text as UTF-8, with no newline translation, to a path or stdout (None)."""
    if dest is not None:
        Path(dest).write_bytes(text.encode("utf-8"))
    else:
        _stdout_writer()(text)


def _stdout_writer() -> Callable[[str], object]:
    """A write of text to stdout as UTF-8, whatever its encoding.

    stdout takes the bytes on its buffer, after its pending text; a stdout
    without a buffer, such as an io.StringIO, takes the text as it is.
    """
    if not hasattr(sys.stdout, "buffer"):
        return sys.stdout.write
    sys.stdout.flush()
    write = sys.stdout.buffer.write
    return lambda text: write(text.encode("utf-8"))
