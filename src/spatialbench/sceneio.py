"""Wire formats, depth-map files, and caption filtering.

Scenes travel as JSON Lines, one object per line:

    {"image_id": ..., "width": W, "height": H,
     "objects": [{"label": ..., "box": [x_min, y_min, x_max, y_max],
                  "score": 0.92}, ...],
     "depth": null | "path.pgm" | [[...], ...],
     "context": "street"}

Boxes are absolute pixels and get clipped to the image before the Scene is
built. Depth files are binary PGM (P5) holding closeness values, written
16-bit big-endian (8-bit accepted on read); anywhere a path is allowed, an
inline JSON 2D array works too, and relative paths resolve against the JSONL
file's directory. Evaluation records wrap a scene with a prompt:

    {"id": ..., "prompt": "A bench under a tree in a city", "scene": {...}}

The prompt is stored as text and parsed on load, so record files stay
readable and auditable by hand.

load_scenes and load_eval_records are generators: they yield one scene or
record per line as it parses, so a caller that consumes them one at a time
holds one depth map at a time. A malformed line raises when it is reached.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import FormatError, ParseError
from .evaluation import EvalRecord
from .extraction import DetectedObject, RelationInstance, Scene
from .geometry import BoundingBox, DepthMap
from .lexicon import default_contexts, default_objects
from .prompts import parse_prompt, render_prompt
from .textutil import ascii_fold, decode_line, normalize_phrase

__all__ = [
    "CaptionRecord",
    "ObjectLexicon",
    "default_object_lexicon",
    "filter_captions",
    "read_depth",
    "write_depth_pgm",
    "scene_from_dict",
    "scene_to_dict",
    "load_scenes",
    "relations_to_dict",
    "eval_record_from_dict",
    "eval_record_to_dict",
    "load_eval_records",
    "load_captions",
    "caption_to_dict",
    "write_jsonl",
]


# ---------------------------------------------------------------------------
# captions

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


@lru_cache(maxsize=1)
def default_object_lexicon() -> ObjectLexicon:
    return ObjectLexicon(frozenset(default_objects()), frozenset(default_contexts()))


_WORD_RE = re.compile(r"[a-z0-9]+")


def _words(text: str) -> list[str]:
    return _WORD_RE.findall(ascii_fold(text).lower())


def _contains_words(words: Sequence[str], phrase: Sequence[str]) -> bool:
    n = len(phrase)
    return any(list(words[i:i + n]) == list(phrase) for i in range(len(words) - n + 1))


def filter_captions(
    records: Iterable[CaptionRecord], lex: ObjectLexicon | None = None
) -> list[CaptionRecord]:
    """Keep captions mentioning at least one object and one context phrase.

    Matching is whole-word on ASCII-folded lowercase text, so "business"
    does not match the object "bus". Input order is preserved.
    """
    lex = lex or default_object_lexicon()
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
# depth maps

def read_depth(path: str | Path) -> DepthMap:
    """Read a closeness map from a binary PGM (P5) or a JSON 2D array."""
    data = Path(path).read_bytes()
    if data[:2] == b"P5":
        values = _parse_pgm(data)
    else:
        try:
            values = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"depth file is neither PGM nor JSON: {exc}") from None
    try:
        return DepthMap(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_depth_pgm(path: str | Path, depth: DepthMap) -> None:
    """Write a closeness map as 16-bit big-endian binary PGM."""
    values = depth.values
    if values.dtype.kind == "f":
        values = np.rint(values)
    if (values < 0).any() or (values > 65535).any():
        raise ValueError("depth values must round into [0, 65535] for PGM output")
    arr = values.astype(">u2")
    header = f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())


def _parse_pgm(data: bytes) -> np.ndarray:
    tokens, pos = _pgm_header(data)
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise FormatError("not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError("PGM header fields must be integers") from None
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise FormatError(f"bad PGM header: {width}x{height}, maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    raster = data[pos + 1:]  # a single whitespace byte separates header and raster
    expected = width * height * dtype.itemsize
    if len(raster) < expected:
        raise FormatError(f"PGM raster truncated: need {expected} bytes, have {len(raster)}")
    return np.frombuffer(raster[:expected], dtype=dtype).reshape(height, width)


def _pgm_header(data: bytes) -> tuple[list[bytes], int]:
    """First four header tokens and the offset just past the last one."""
    tokens: list[bytes] = []
    pos, n = 0, len(data)
    while pos < n and len(tokens) < 4:
        c = data[pos:pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            end = pos
            while end < n and data[end:end + 1] not in b" \t\r\n#":
                end += 1
            tokens.append(data[pos:end])
            pos = end
    return tokens, pos


# ---------------------------------------------------------------------------
# scenes

def scene_from_dict(
    record: Mapping,
    *,
    base_dir: str | Path | None = None,
    line: int | None = None,
    field_prefix: str = "",
) -> Scene:
    """Validate one scene record and build a Scene, clipping boxes to the image."""
    if not isinstance(record, Mapping):
        raise FormatError("scene record must be a JSON object", line=line, field=field_prefix or None)

    def err(reason: str, field: str) -> FormatError:
        return FormatError(reason, line=line, field=field_prefix + field)

    image_id = record.get("image_id")
    if not isinstance(image_id, (str, int)) or isinstance(image_id, bool):
        raise err("image_id must be a string or integer", "image_id")
    width = _positive_number(record, "width", err)
    height = _positive_number(record, "height", err)

    raw_objects = record.get("objects", [])
    if not isinstance(raw_objects, list):
        raise err("objects must be a list", "objects")
    objects = []
    for i, raw in enumerate(raw_objects):
        def obj_err(reason: str, _field: str = f"objects[{i}]") -> FormatError:
            return err(reason, _field)

        objects.append(_object_from_dict(raw, width, height, obj_err))

    depth = None
    raw_depth = record.get("depth")
    if raw_depth is not None:
        if isinstance(raw_depth, str):
            depth_path = Path(raw_depth)
            if base_dir is not None and not depth_path.is_absolute():
                depth_path = Path(base_dir) / depth_path
            try:
                depth = read_depth(depth_path)
            except OSError as exc:
                raise err(f"cannot read depth file: {exc}", "depth") from None
            except FormatError as exc:
                raise err(exc.reason, "depth") from None
        elif isinstance(raw_depth, list):
            try:
                depth = DepthMap(raw_depth)
            except ValueError as exc:
                raise err(str(exc), "depth") from None
        else:
            raise err("depth must be null, a path, or a 2D array", "depth")

    context = record.get("context")
    if context is not None and not isinstance(context, str):
        raise err("context must be a string", "context")

    try:
        return Scene(str(image_id), float(width), float(height), tuple(objects),
                     depth=depth, context=context)
    except ValueError as exc:
        raise FormatError(str(exc), line=line, field=field_prefix or None) from None


def _positive_number(record: Mapping, name: str, err) -> float:
    value = record.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise err(f"{name} must be a number", name)
    if not (math.isfinite(value) and value > 0):
        raise err(f"{name} must be positive and finite", name)
    return float(value)


def _object_from_dict(raw, width: float, height: float, err) -> DetectedObject:
    if not isinstance(raw, Mapping):
        raise err("object must be a JSON object")
    label = raw.get("label")
    if not isinstance(label, str) or not label.strip():
        raise err("label must be a non-empty string")
    box = raw.get("box")
    if (not isinstance(box, list) or len(box) != 4
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in box)):
        raise err("box must be a list of four numbers")
    x_min, y_min, x_max, y_max = (float(c) for c in box)
    if not all(math.isfinite(c) for c in (x_min, y_min, x_max, y_max)):
        raise err("box coordinates must be finite")
    if x_min >= x_max or y_min >= y_max:
        raise err(f"box must have positive extent, got {box}")
    # clip to the image; a box entirely outside it has no valid clipped form
    x_min, x_max = max(0.0, min(x_min, width)), max(0.0, min(x_max, width))
    y_min, y_max = max(0.0, min(y_min, height)), max(0.0, min(y_max, height))
    if x_min >= x_max or y_min >= y_max:
        raise err(f"box {box} lies outside the image")
    score = raw.get("score", 1.0)
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise err("score must be a number")
    try:
        return DetectedObject(label, BoundingBox(x_min, y_min, x_max, y_max), float(score))
    except ValueError as exc:
        raise err(str(exc)) from None


def scene_to_dict(scene: Scene, *, depth_ref: str | None = None) -> dict:
    """Serialize a Scene; depth goes inline unless depth_ref names a file."""
    out: dict = {
        "image_id": scene.image_id,
        "width": _plain_number(scene.width),
        "height": _plain_number(scene.height),
        "objects": [
            {
                "label": obj.label,
                "box": [_plain_number(c) for c in obj.box.as_tuple()],
                "score": _plain_number(obj.score),
            }
            for obj in scene.objects
        ],
    }
    if depth_ref is not None:
        out["depth"] = depth_ref
    elif scene.depth is not None:
        values = scene.depth.values
        if values.dtype.kind != "f" or not np.all(values == np.rint(values)):
            out["depth"] = values.tolist()
        elif values.max() < 2.0**63:  # values are >= 0, so every one fits in int64
            out["depth"] = values.astype(np.int64).tolist()
        else:
            out["depth"] = [[int(v) for v in row] for row in values.tolist()]
    if scene.context is not None:
        out["context"] = scene.context
    return out


def _plain_number(value: float) -> int | float:
    return int(value) if float(value).is_integer() else float(value)


def load_scenes(path: str | Path) -> Iterator[Scene]:
    """Yield the file's scenes one at a time, reading each depth map as it goes."""
    base_dir = Path(path).parent
    for line_no, obj in _iter_jsonl(path):
        yield scene_from_dict(obj, base_dir=base_dir, line=line_no)


def relations_to_dict(scene: Scene, relations: Sequence[RelationInstance]) -> dict:
    """One output line of the extractor: scene id plus its relation facts."""
    rendered = []
    for rel in relations:
        entry = {
            "kind": rel.kind.value,
            "subject": rel.subject,
            "objects": list(rel.objects),
        }
        if rel.context is not None:
            entry["context"] = rel.context
        rendered.append(entry)
    return {"image_id": scene.image_id, "relations": rendered}


# ---------------------------------------------------------------------------
# evaluation records

def eval_record_from_dict(
    record: Mapping, *, base_dir: str | Path | None = None, line: int | None = None
) -> EvalRecord:
    if not isinstance(record, Mapping):
        raise FormatError("evaluation record must be a JSON object", line=line)
    record_id = record.get("id")
    if not isinstance(record_id, (str, int)) or isinstance(record_id, bool):
        raise FormatError("id must be a string or integer", line=line, field="id")
    prompt_text = record.get("prompt")
    if not isinstance(prompt_text, str):
        raise FormatError("prompt must be a string", line=line, field="prompt")
    try:
        prompt = parse_prompt(prompt_text)
    except ParseError as exc:
        raise FormatError(f"prompt does not parse: {exc.reason}",
                          line=line, field="prompt") from None
    scene_obj = record.get("scene")
    if scene_obj is None:
        raise FormatError("scene is required", line=line, field="scene")
    scene = scene_from_dict(scene_obj, base_dir=base_dir, line=line, field_prefix="scene.")
    return EvalRecord(str(record_id), prompt, scene)


def eval_record_to_dict(record: EvalRecord) -> dict:
    return {
        "id": record.record_id,
        "prompt": render_prompt(record.prompt),
        "scene": scene_to_dict(record.scene),
    }


def load_eval_records(path: str | Path) -> Iterator[EvalRecord]:
    """Yield the file's evaluation records one at a time."""
    base_dir = Path(path).parent
    for line_no, obj in _iter_jsonl(path):
        yield eval_record_from_dict(obj, base_dir=base_dir, line=line_no)


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


def write_jsonl(dest: IO[str] | str | Path, objs: Iterable[Mapping]) -> None:
    """Write canonical JSON Lines: sorted keys, one object per line."""
    if hasattr(dest, "write"):
        for obj in objs:
            dest.write(json.dumps(obj, sort_keys=True) + "\n")
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
