"""Wire formats and depth-map files.

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
readable and auditable by hand. eval_record_lines gives each record's line
with its depth plane inline; a plane shared by many records (stub-gen shares
one across its 3D scenes) has its rows encoded once per call, and the bytes
are those of encoding every record on its own.

load_scenes and load_eval_records are generators: they yield one scene or
record per line as it parses, so a caller that consumes them one at a time
holds one depth map at a time. A malformed line raises when it is reached.
Reading mirrors the encode splice: an inline plane is decoded once per run
of lines that repeat its text, and those records share one read-only
DepthMap; the reader keeps only the last plane. The JSONL line reader and
writer live in the numpy-free captions module. Depth maps are decoded into
and encoded from DepthMap's flat array without numpy.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .captions import _iter_lines, _loads, write_jsonl
from .errors import DimensionMismatch, FormatError, ParseError
from .evaluation import EvalRecord
from .extraction import DetectedObject, RelationInstance, Scene
from .geometry import BoundingBox, DepthMap
from .prompts import parse_prompt, render_prompt

__all__ = [
    "read_depth",
    "write_depth_pgm",
    "scene_from_dict",
    "scene_to_dict",
    "load_scenes",
    "relations_to_dict",
    "eval_record_from_dict",
    "eval_record_to_dict",
    "eval_record_lines",
    "load_eval_records",
    "write_jsonl",
]


# ---------------------------------------------------------------------------
# depth maps

def read_depth(path: str | Path) -> DepthMap:
    """Read a closeness map from a binary PGM (P5) or a JSON 2D array."""
    data = Path(path).read_bytes()
    if data[:2] == b"P5":
        flat, shape = _parse_pgm(data)
        return DepthMap(flat, shape=shape)
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
    values = depth.flat
    if values.format == "d":
        values = [round(v) for v in values]  # half to even, as numpy.rint
    if min(values) < 0 or max(values) > 65535:
        raise ValueError("depth values must round into [0, 65535] for PGM output")
    raster = array("H", values)
    if sys.byteorder == "little":
        raster.byteswap()
    header = f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


def _parse_pgm(data: bytes) -> tuple[array, tuple[int, int]]:
    """The raster as a flat array of native-order values, and its (height, width)."""
    tokens, pos = _pgm_header(data)
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise FormatError("not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError("PGM header fields must be integers") from None
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise FormatError(f"bad PGM header: {width}x{height}, maxval {maxval}")
    flat = array("H" if maxval > 255 else "B")
    start = pos + 1  # a single whitespace byte separates header and raster
    expected = width * height * flat.itemsize
    have = max(0, len(data) - start)
    if have < expected:
        raise FormatError(f"PGM raster truncated: need {expected} bytes, have {have}")
    # a memoryview slice reads the raster in place; a bytes slice would copy it
    flat.frombytes(memoryview(data)[start:start + expected])
    if flat.itemsize > 1 and sys.byteorder == "little":
        flat.byteswap()  # PGM stores 16-bit values big-endian
    return flat, (height, width)


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
    """Validate one scene record and build a Scene, clipping boxes to the image.

    depth is null, a path, a 2D array, or a DepthMap, which is used as is.
    """
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
        elif isinstance(raw_depth, DepthMap):
            depth = raw_depth
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
    except DimensionMismatch as exc:
        raise DimensionMismatch(exc.reason, line=line, field=field_prefix + "depth") from None
    except ValueError as exc:
        raise FormatError(str(exc), line=line, field=field_prefix or None) from None


def _positive_number(record: Mapping, name: str, err) -> float:
    value = record.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise err(f"{name} must be a number", name)
    value = _float(value)
    if not (math.isfinite(value) and value > 0):
        raise err(f"{name} must be positive and finite", name)
    return value


def _float(value: int | float) -> float:
    """value as a float; an int past the float range becomes the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
    x_min, y_min, x_max, y_max = (_float(c) for c in box)
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
        return DetectedObject(label, BoundingBox(x_min, y_min, x_max, y_max), _float(score))
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
        out["depth"] = _depth_rows(scene.depth)
    if scene.context is not None:
        out["context"] = scene.context
    return out


def _depth_rows(depth: DepthMap) -> list[list[int | float]]:
    """The grid as nested lists; a float grid of whole numbers as exact ints."""
    flat = depth.flat
    if flat.format == "d" and all(v.is_integer() for v in flat):
        values = [int(v) for v in flat]  # int(-0.0) is 0
        w = depth.width
        return [values[i:i + w] for i in range(0, len(values), w)]
    # a flat view casts to 2D only by way of bytes
    return flat.cast("B").cast(flat.format, (depth.height, depth.width)).tolist()


def _plain_number(value: float) -> int | float:
    return int(value) if float(value).is_integer() else float(value)


def relations_to_dict(scene: Scene, relations: Sequence[RelationInstance]) -> dict:
    """One output line of the extractor: scene id plus its relation facts.

    Each fact repeats the scene's context, when it has one.
    """
    context = {} if scene.context is None else {"context": scene.context}
    return {"image_id": scene.image_id, "relations": [
        {"kind": rel.kind.value, "subject": rel.subject, "objects": list(rel.objects), **context}
        for rel in relations
    ]}


# ---------------------------------------------------------------------------
# JSONL reading: a repeated inline plane is decoded once

# json.dumps writes a scene's inline plane after this text, and the plane's
# last row closes at the first "]]" after it
_INLINE_PLANE = '"depth": ['

# the dict of a decoded line that holds its scene's depth key, or None
_SceneOf = Callable[[object], dict | None]


def _iter_values(path: str | Path, scene_of: _SceneOf) -> Iterator[tuple[int, object]]:
    """Yield each line's number and JSON value, decoding a repeated inline plane once.

    When _split_plane proves a line's plane, that depth becomes a
    DepthMap: the previous line's map when the plane text is the same, so a
    run of records that share a plane shares one map. Only the last plane is
    kept. Every other line, and one whose plane does not decode into a map,
    takes the plain decode, which reports any fault as it always has.
    """
    plane_text = plane = None
    for line_no, text in _iter_lines(path):
        split = _split_plane(text, scene_of)
        if split is not None:
            value, scene, span = split
            if span != plane_text:
                plane_text, plane = span, _plane(span)
            if plane is not None:
                scene["depth"] = plane
                yield line_no, value
                continue
        yield line_no, _loads(text, line_no)


def _split_plane(text: str, scene_of: _SceneOf) -> tuple[object, dict, str] | None:
    """The line's value with its scene depth set to 0, that scene, and the plane text.

    The candidate plane runs from the first '"depth": [' to the first "]]"
    after it. It is the scene's depth value exactly when the line with 0 in
    its place decodes to a scene depth of int 0, and with 1 to int 1: the two
    texts differ in one character, so only a token that is the depth value
    itself moves that field. That rules out a match inside a key or an
    object's own depth, a duplicate depth key and a literal depth elsewhere;
    the type test rules out a digit that the text after the plane makes a
    float. None when there is no candidate or the check fails.
    """
    start = text.find(_INLINE_PLANE)
    if start < 0:
        return None
    start += len(_INLINE_PLANE) - 1
    end = text.find("]]", start) + 2
    if end < 2:
        return None
    head, tail = text[:start], text[end:]
    try:
        zero, one = json.loads(head + "0" + tail), json.loads(head + "1" + tail)
    except ValueError:  # a decode error, or an integer past the digit limit
        return None
    scene, check = scene_of(zero), scene_of(one)
    if scene is None or check is None:
        return None
    depths = scene.get("depth"), check.get("depth")
    if (type(depths[0]), type(depths[1])) != (int, int) or depths != (0, 1):
        return None
    return zero, scene, text[start:end]


def _plane(text: str) -> DepthMap | None:
    """The plane text as a DepthMap; None for a fault, which the plain decode reports."""
    try:
        return DepthMap(json.loads(text))
    except ValueError:  # bad JSON, an integer past the digit limit, or a bad grid
        return None


def _scene_itself(value: object) -> dict | None:
    return value if isinstance(value, dict) else None


def _record_scene(value: object) -> dict | None:
    scene = value.get("scene") if isinstance(value, dict) else None
    return scene if isinstance(scene, dict) else None


def load_scenes(path: str | Path) -> Iterator[Scene]:
    """Yield the file's scenes one at a time, reading each depth map as it goes."""
    base_dir = Path(path).parent
    for line_no, obj in _iter_values(path, _scene_itself):
        yield scene_from_dict(obj, base_dir=base_dir, line=line_no)


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
        raise FormatError(f"prompt does not parse: {exc}",
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


# Once a record's scene depth is set to None, the first occurrence of this text
# in its encoding is that key: a JSON string never holds an unescaped '"', and
# the scene's depth key sorts before its objects. It is also the only one, as
# objects hold only label, box and score.
_NULL_DEPTH = '"depth": null'


def eval_record_lines(records: Iterable[EvalRecord]) -> Iterator[str]:
    """Each record's JSONL line, json.dumps(eval_record_to_dict(record), sort_keys=True).

    A depth map's rows are encoded once per call, and that text is spliced into
    every record whose scene holds the same map (stub scenes share one). The
    memo keys by id and keeps each map it keys, so no id is reused while it lives.
    """
    rows_text: dict[int, tuple[DepthMap, str]] = {}
    for record in records:
        obj = eval_record_to_dict(record)
        depth = record.scene.depth
        if depth is None:
            yield json.dumps(obj, sort_keys=True)
            continue
        scene = obj["scene"]
        entry = rows_text.get(id(depth))
        if entry is None:
            entry = rows_text[id(depth)] = (depth, json.dumps(scene["depth"]))
        scene["depth"] = None
        yield json.dumps(obj, sort_keys=True).replace(_NULL_DEPTH, '"depth": ' + entry[1], 1)


def load_eval_records(path: str | Path) -> Iterator[EvalRecord]:
    """Yield the file's evaluation records one at a time."""
    base_dir = Path(path).parent
    for line_no, obj in _iter_values(path, _record_scene):
        yield eval_record_from_dict(obj, base_dir=base_dir, line=line_no)
