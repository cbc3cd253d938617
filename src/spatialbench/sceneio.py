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
file's directory. A PGM file is checked when its scene loads: its header,
and its length against the raster the header declares. As Netpbm requires,
every sample lies in 0 .. maxval, so a file whose maxval is not 255 or 65535
is read whole at load and a sample above it is an error there. The raster
of any other file, whose 8- or 16-bit samples cannot pass maxval, is read
when the map's values are first needed, so a scene whose depth takes no box
mean never reads it; a file cut short in between raises a FormatError that
names it at that first use. Evaluation records wrap a scene with a prompt:

    {"id": ..., "prompt": "A bench under a tree in a city", "scene": {...}}

The prompt is stored as text and parsed on load, so record files stay
readable and auditable by hand. eval_record_lines gives each record's line
with its depth plane inline; a plane shared by many records (stub-gen shares
one across its 3D scenes) has its rows built and encoded once per call, and
the bytes are those of encoding every record on its own.

load_scenes and load_eval_records are generators: they yield one scene or
record per line as it parses, so a caller that consumes them one at a time
holds one depth map at a time. A malformed line raises when it is reached.
load_scenes decodes each line once, on its own. load_eval_records mirrors
the encode splice: an inline plane is decoded once per run of record lines
that repeat its text, and those records share one read-only DepthMap; the
reader keeps only the last plane. textutil splits the lines and decodes the
JSON, so a scene or record file, a JSON depth file and every other input
report a fault in their bytes alike. textutil also encodes each line, and
write_jsonl, re-exported here, is its writer.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import re
import sys
from array import array
from collections.abc import Mapping
from pathlib import Path
from stat import S_ISREG
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import DimensionMismatch, FormatError, ParseError
from .extraction import DetectedObject, RelationInstance, Scene
from .geometry import BoundingBox, DepthMap, _range_sums_exact
from .prompts import parse_prompt, render_prompt
from .relations import _unchecked
from .textutil import (all_numbers, as_float, is_number, json_line, json_value, jsonl_lines,
                       write_jsonl)

if TYPE_CHECKING:
    from .evaluation import EvalRecord

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
    """Read a closeness map from a binary PGM (P5) or a JSON 2D array.

    A PGM file's header and length are checked here, and so is each sample
    against a maxval other than 255 or 65535; the raster of any other file
    is read when the map's values are first needed (see _pending_pgm).
    """
    with open(path, "rb") as fh:
        data = fh.read(_PGM_HEAD)
        if data[:2] == b"P5":
            depth = _pending_pgm(path, data, os.fstat(fh.fileno()))
            if depth is not None:
                return depth
        data += fh.read()
    if data[:2] == b"P5":
        tokens, pos = _pgm_header(data)
        typecode, shape, start, nbytes, maxval = _pgm_layout(tokens, pos, len(data))
        raster = memoryview(data)[start:start + nbytes]
        return DepthMap(_raster(raster, typecode, maxval), shape=shape)
    values = json_value(data)
    try:
        return DepthMap(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_depth_pgm(path: str | Path, depth: DepthMap) -> None:
    """Write a closeness map as 16-bit big-endian binary PGM."""
    values = depth.flat
    if values.format == "d":
        values = [round(v) for v in values]  # half to even
    if min(values) < 0 or max(values) > 65535:
        raise ValueError("depth values must round into [0, 65535] for PGM output")
    raster = array("H", values)
    if sys.byteorder == "little":
        raster.byteswap()
    header = f"P5\n{depth.width} {depth.height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


# the bytes read at load; a PGM header longer than this is read with its raster
_PGM_HEAD = 512


def _pending_pgm(path: str | Path, head: bytes, stat: os.stat_result) -> DepthMap | None:
    """A regular PGM file whose header ends within head, as a map read on first use.

    The header and the file's length are checked now, with the messages of a
    whole read; the raster's length is the file's size past the header. None
    for any other file, which is then read whole, as is one whose samples a
    maxval other than 255 or 65535 bounds or whose box sums could pass 2**53.
    """
    tokens, pos = _pgm_header(head)
    if pos >= len(head) or not S_ISREG(stat.st_mode):
        return None
    typecode, shape, start, nbytes, maxval = _pgm_layout(tokens, pos, stat.st_size)
    if maxval not in (255, 65535) or not _range_sums_exact(typecode, shape[0] * shape[1]):
        return None
    return DepthMap._pending(functools.partial(_pgm_raster, path, start, nbytes, typecode, maxval),
                             shape)


def _pgm_raster(path: str | Path, start: int, nbytes: int, typecode: str, maxval: int) -> array:
    """The raster of a PGM file checked at load, read now; a FormatError naming a bad file."""
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            data = fh.read(nbytes)
    except OSError as exc:
        raise FormatError(f"cannot read depth file: {exc}") from None
    if len(data) < nbytes:
        raise FormatError(f"depth file {path}: PGM raster truncated: "
                          f"need {nbytes} bytes, have {len(data)}")
    return _raster(data, typecode, maxval)


def _pgm_layout(tokens: list[bytes], pos: int,
                size: int) -> tuple[str, tuple[int, int], int, int, int]:
    """Storage typecode, (height, width), raster offset, raster bytes and maxval of a PGM file.

    tokens and pos are _pgm_header's, and size is the file's length in bytes.
    """
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise FormatError("not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError("PGM header fields must be integers") from None
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise FormatError(f"bad PGM header: {width}x{height}, maxval {maxval}")
    typecode = "H" if maxval > 255 else "B"
    start = pos + 1  # a single whitespace byte separates header and raster
    nbytes = width * height * (2 if typecode == "H" else 1)
    have = max(0, size - start)
    if have < nbytes:
        raise FormatError(f"PGM raster truncated: need {nbytes} bytes, have {have}")
    return typecode, (height, width), start, nbytes, maxval


def _raster(data, typecode: str, maxval: int) -> array:
    """Raster bytes as a flat array of native-order values; one above maxval is a FormatError."""
    flat = array(typecode)
    flat.frombytes(data)
    if flat.itemsize > 1 and sys.byteorder == "little":
        flat.byteswap()  # PGM stores 16-bit values big-endian
    # a maxval of 255 or 65535 is the storage's own range: no value can pass it
    if maxval not in (255, 65535) and (top := max(flat)) > maxval:
        raise FormatError(f"PGM value {top} above maxval {maxval}")
    return flat


# Up to four header fields, each after any whitespace and "#" comments. A
# comment runs to its newline or to the end, so no field is read from inside
# one, and a missing field gives up its separators once: the match is linear.
_PGM_FIELD = rb"(?:[ \t\r\n]|#[^\n]*(?:\n|\Z))*([^ \t\r\n#]+)"
_PGM_FIELDS = re.compile(rb"(?:%s(?:%s(?:%s(?:%s)?)?)?)?" % ((_PGM_FIELD,) * 4))


def _pgm_header(data: bytes) -> tuple[list[bytes], int]:
    """First four header tokens and the offset just past the last one.

    With fewer than four tokens the offset is len(data): the header does not
    end within data.
    """
    match = _PGM_FIELDS.match(data)
    tokens = [token for token in match.groups() if token is not None]
    return tokens, match.end() if len(tokens) == 4 else len(data)


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
            # an absolute raw_depth stands alone
            depth_path = raw_depth if base_dir is None else os.path.join(base_dir, raw_depth)
            try:
                depth = read_depth(depth_path)
            except OSError as exc:
                raise err(f"cannot read depth file: {exc}", "depth") from None
            except FormatError as exc:  # its line is the depth file's, not the scene's
                where = raw_depth if exc.line is None else f"{raw_depth} line {exc.line}"
                raise err(f"depth file {where}: {exc.reason}", "depth") from None
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
        reason = exc.reason
        if isinstance(raw_depth, str):
            reason = f"depth file {raw_depth}: {reason}"
        raise DimensionMismatch(reason, line=line, field=field_prefix + "depth") from None
    except ValueError as exc:
        raise FormatError(str(exc), line=line, field=field_prefix or None) from None


def _positive_number(record: Mapping, name: str, err) -> float:
    value = record.get(name)
    if not is_number(value):
        raise err(f"{name} must be a number", name)
    value = as_float(value)
    if not (math.isfinite(value) and value > 0):
        raise err(f"{name} must be positive and finite", name)
    return value


def _object_from_dict(raw, width: float, height: float, err) -> DetectedObject:
    if not isinstance(raw, Mapping):
        raise err("object must be a JSON object")
    label = raw.get("label")
    if not isinstance(label, str) or not label.strip():
        raise err("label must be a non-empty string")
    box = raw.get("box")
    # plain ints and floats pass on their type alone, and a box inside the
    # image needs no clipping: most boxes take neither slower path
    if not isinstance(box, list) or len(box) != 4 or not all_numbers(box):
        raise err("box must be a list of four numbers")
    try:
        x_min, y_min, x_max, y_max = map(float, box)
    except OverflowError:
        x_min, y_min, x_max, y_max = map(as_float, box)
    if not all(map(math.isfinite, (x_min, y_min, x_max, y_max))):
        raise err("box coordinates must be finite")
    if x_min >= x_max or y_min >= y_max:
        raise err(f"box must have positive extent, got {box}")
    if not (0 < x_min and x_max <= width and 0 < y_min and y_max <= height):
        # clip to the image; a box entirely outside it has no valid clipped form
        x_min, x_max = max(0.0, min(x_min, width)), max(0.0, min(x_max, width))
        y_min, y_max = max(0.0, min(y_min, height)), max(0.0, min(y_max, height))
        if x_min >= x_max or y_min >= y_max:
            raise err(f"box {box} lies outside the image")
    score = raw.get("score", 1.0)
    if not is_number(score):
        raise err("score must be a number")
    # the checks above are BoundingBox's, so the box is built without them
    box = _unchecked(BoundingBox, x_min=x_min, y_min=y_min, x_max=x_max, y_max=y_max)
    try:
        return DetectedObject(label, box, as_float(score))
    except ValueError as exc:
        raise err(str(exc)) from None


def scene_to_dict(scene: Scene) -> dict:
    """Serialize a Scene, its depth inline."""
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
    if scene.depth is not None:
        out["depth"] = _depth_rows(scene.depth)
    if scene.context is not None:
        out["context"] = scene.context
    return out


def _depth_rows(depth: DepthMap) -> list[list[int | float]]:
    """The grid as nested lists; a float grid of whole numbers as exact ints."""
    flat = depth.flat
    if flat.format == "d" and all(v.is_integer() for v in flat):
        return [[int(v) for v in row] for row in depth.values]  # int(-0.0) is 0
    return depth.values


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


def load_scenes(path: str | Path) -> Iterator[Scene]:
    """Yield the file's scenes one at a time, reading each depth map as it goes.

    Each line is decoded once, on its own; only record files share a plane.
    """
    base_dir = Path(path).parent
    for line_no, text in jsonl_lines(path):
        yield scene_from_dict(json_value(text, line_no), base_dir=base_dir, line=line_no)


# ---------------------------------------------------------------------------
# record reading: a repeated inline plane is decoded once

# json_line writes a scene's inline plane after this text, and the plane's
# last row closes at the first "]]" after it
_INLINE_PLANE = '"depth": ['


def _iter_values(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield each record line's number and JSON value, decoding a repeated inline plane once.

    When _split_plane proves a line's plane, that depth becomes a
    DepthMap: the previous line's map when the plane text is the same, so a
    run of records that share a plane shares one map. Only the last plane is
    kept. Every other line, and one whose plane does not decode into a map,
    takes the plain decode, which reports any fault as it always has.
    """
    plane_text = plane = None
    for line_no, text in jsonl_lines(path):
        split = _split_plane(text)
        if split is not None:
            value, scene, span = split
            if span != plane_text:
                plane_text, plane = span, _plane(span)
            if plane is not None:
                scene["depth"] = plane
                yield line_no, value
                continue
        yield line_no, json_value(text, line_no)


def _split_plane(text: str) -> tuple[object, dict, str] | None:
    """The record line's value with its scene depth set to 0, that scene, and the plane text.

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
        zero, one = json_value(head + "0" + tail), json_value(head + "1" + tail)
    except FormatError:
        return None
    scene, check = _record_scene(zero), _record_scene(one)
    if scene is None or check is None:
        return None
    depths = scene.get("depth"), check.get("depth")
    if (type(depths[0]), type(depths[1])) != (int, int) or depths != (0, 1):
        return None
    return zero, scene, text[start:end]


def _plane(text: str) -> DepthMap | None:
    """The plane text as a DepthMap; None for a fault, which the plain decode reports."""
    try:
        return DepthMap(json_value(text))
    except (FormatError, ValueError):  # ValueError: a bad grid
        return None


def _record_scene(value: object) -> dict | None:
    scene = value.get("scene") if isinstance(value, dict) else None
    return scene if isinstance(scene, dict) else None


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
    from .evaluation import EvalRecord  # here, so that extract never runs the scoring module

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
    """Each record's JSONL line, json_line(eval_record_to_dict(record)).

    A depth map's rows are built and encoded once per call, and that text is
    spliced into every record whose scene holds the same map (stub scenes
    share one); a later such record is encoded from a copy without the map.
    The memo keys by id and keeps each map it keys, so no id is reused while
    it lives.
    """
    rows_text: dict[int, tuple[DepthMap, str]] = {}
    for record in records:
        depth = record.scene.depth
        if depth is None:
            yield json_line(eval_record_to_dict(record))
            continue
        entry = rows_text.get(id(depth))
        if entry is not None:
            record = dataclasses.replace(
                record, scene=dataclasses.replace(record.scene, depth=None))
        obj = eval_record_to_dict(record)
        scene = obj["scene"]
        if entry is None:
            entry = rows_text[id(depth)] = (depth, json_line(scene["depth"]))
        scene["depth"] = None
        yield json_line(obj).replace(_NULL_DEPTH, '"depth": ' + entry[1], 1)


def load_eval_records(path: str | Path) -> Iterator[EvalRecord]:
    """Yield the file's evaluation records one at a time."""
    base_dir = Path(path).parent
    for line_no, obj in _iter_values(path):
        yield eval_record_from_dict(obj, base_dir=base_dir, line=line_no)
