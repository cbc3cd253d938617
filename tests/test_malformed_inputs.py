"""Malformed input of every kind ends in exit 1 and one error line, never a traceback.

Each case starts from valid input files and breaks one of them: a bad UTF-8
byte, a truncation, JSON nested past the recursion limit, an integer past
int's digit limit, a syntax error, or a value of the wrong type or range.
The command runs in process through main(), so an exception that escapes
it fails the test with its traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatialbench import sceneio
from spatialbench.cli import main
from spatialbench.errors import FormatError

PROMPTS = ["A bus to the right of a car in a city", "A lamp below a bench in a park",
           "A tree in front of a kiosk in a street"]
PLANE = [[(x * y) % 7 for x in range(8)] for y in range(6)]
PGM = b"P5\n8 6\n255\n" + bytes(v for row in PLANE for v in row)

# raw JSON text that no reader accepts in place of a value
DEEP = "[" * 5000 + "]" * 5000
DIGITS = "1" + "0" * 5000  # past int's default limit of 4300 digits
SYNTAX = "{oops"
BAD_BYTES = [b"\xff", b"\xe9", b"\xc3", b"\x80"]


@dataclass
class Case:
    """Input files by name, the argv after the command, and what the error must name."""

    files: dict[str, bytes]
    argv: list[str]
    names: tuple[str, ...]  # files the error line names
    line: int | None = None  # the line it names, where the fault has one
    label: str = field(default="")


def _scene(i: int, depth) -> dict:
    return {"image_id": f"s{i}", "width": 8, "height": 6, "depth": depth, "context": "city",
            "objects": [{"label": "bus", "box": [0, 0, 3, 3], "score": 0.9},
                        {"label": "car", "box": [4, 0, 7, 3], "score": 0.8}]}


def _scenes() -> list[dict]:
    return [_scene(0, PLANE), _scene(1, "d.pgm"), _scene(2, "d.json")]


def _records() -> list[dict]:
    return [{"id": f"r{i}", "prompt": PROMPTS[i], "scene": scene}
            for i, scene in enumerate(_scenes())]


def _captions() -> list[dict]:
    return [{"caption": "a red bus on a street downtown", "image": "a.jpg", "source": "web"},
            {"caption": "a car in a park"}]


SIDE_FILES = {"d.pgm": PGM, "d.json": json.dumps(PLANE).encode()}
# a JSON true among a plane's numbers: a literal, not the number 1
BOOL_PLANE = [[True] + [0] * 7] + [[0] * 8] * 5

# a value of the wrong type or out of range, per field path
SCENE_VALUES = [
    ("width", "x"), ("width", 0), ("height", -1), ("image_id", True), ("image_id", None),
    ("objects", {}), ("objects.0", 5), ("objects.0.label", ""), ("objects.1.label", 3),
    ("objects.0.box", [1, 2]), ("objects.0.box", [5, 0, 1, 3]),
    ("objects.1.box", [100, 100, 200, 200]), ("objects.0.box", [0, 0, "3", 3]),
    ("objects.0.score", 2), ("objects.1.score", "x"), ("objects.0.score", -0.5),
    ("depth", 5), ("depth", [[1, 2], [3]]), ("depth", [[1, 2]]), ("depth", [[-1] * 8] * 6),
    ("depth", [["1"] * 8] * 6), ("depth", []), ("depth", "missing.pgm"), ("context", 3),
    ("depth", BOOL_PLANE),
]
RECORD_VALUES = [("id", None), ("id", 1.5), ("prompt", "not a prompt"), ("prompt", 5),
                 ("scene", None), ("scene", [])]
CAPTION_VALUES = [("caption", ""), ("caption", 5), ("image", 5), ("source", [])]
NUMERIC_SCENE_PATHS = ["width", "height", "objects.0.box.2", "objects.1.score"]


def _put(obj, path: str, value):
    *head, last = path.split(".")
    for key in head:
        obj = obj[int(key)] if isinstance(obj, list) else obj[key]
    if isinstance(obj, list):
        obj[int(last)] = value
    else:
        obj[last] = value


def _with_raw(obj, path: str, raw: str) -> str:
    """obj's JSON text with the value at path replaced by raw text."""
    marker = "\x00fault\x00"
    _put(obj, path, marker)
    return json.dumps(obj).replace(json.dumps(marker), raw)


def _insert_byte(data: bytes, at: int, byte: bytes) -> bytes:
    at %= len(data) + 1
    return data[:at] + byte + data[at:]


def _lines(objs: list) -> list[str]:
    return [json.dumps(o) for o in objs]


def _joined(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


# ---------------------------------------------------------------------------
# record files: scenes (extract), records (evaluate, bias-report), captions

def jsonl_case(kind: str, fault: str, index: int, pick: int, at: int) -> Case:
    """kind is scenes, records or captions; index picks the line and pick the fault's target."""
    objs = {"scenes": _scenes, "records": _records, "captions": _captions}[kind]()
    index %= len(objs)
    prefix = "scene." if kind == "records" else ""
    lines = _lines(objs)
    if fault == "value":
        values = {"scenes": SCENE_VALUES, "records": RECORD_VALUES + [
            (prefix + path, value) for path, value in SCENE_VALUES],
            "captions": CAPTION_VALUES}[kind]
        path, value = values[pick % len(values)]
        _put(objs[index], path, value)
        lines[index] = json.dumps(objs[index])
    elif fault in ("deep", "digits", "syntax"):
        if kind == "captions":
            paths = ["caption", "image"]
        else:
            paths = [prefix + p for p in NUMERIC_SCENE_PATHS]
            if fault != "digits":
                paths += [prefix + "objects", prefix + "depth", prefix + "image_id"]
        raw = {"deep": DEEP, "digits": DIGITS, "syntax": SYNTAX}[fault]
        lines[index] = _with_raw(objs[index], paths[pick % len(paths)], raw)
    elif fault == "truncate":
        lines[index] = lines[index][:1 + at % (len(lines[index]) - 1)]
    data = _joined(lines)
    if fault == "byte":
        encoded = [line.encode() + b"\n" for line in lines]
        encoded[index] = _insert_byte(encoded[index][:-1], at, BAD_BYTES[pick % 4]) + b"\n"
        data = b"".join(encoded)
    name = f"{kind}.jsonl"
    command = {"scenes": ["extract"], "records": [("evaluate", "bias-report")[at % 2]],
               "captions": ["filter-captions"]}[kind]
    return Case({name: data, **SIDE_FILES}, [*command, name], (name,), index + 1,
                f"{kind} {fault}")


PGM_FAULTS = [b"P5\n8 6\n0\n" + PGM[11:], b"P5\n0 6\n255\n" + PGM[11:], b"P5\nx 6\n255\n" + PGM[11:],
              b"P6\n8 6\n255\n" + PGM[11:], b"P5\n8 6\n70000\n"]
DEPTH_JSON_FAULTS = ["[[1, 2], [3]]", "[[-1]]", "[[true, false]]", "[[]]", "[]", "{}", "3",
                     "[[NaN, 1]]", json.dumps(BOOL_PLANE)]
# a well-formed map of the wrong size: the error names the file, the scene's line and field
WRONG_SIZE = {"d.pgm": b"P5\n4 3\n255\n" + bytes(12), "d.json": b"[[1, 2]]"}


def depth_file_case(fault: str, pick: int, at: int) -> Case:
    """A broken PGM or JSON depth file, read through a scene or a record."""
    files = dict(SIDE_FILES)
    if fault == "wrong-size":
        name = ("d.pgm", "d.json")[pick % 2]
        files[name] = WRONG_SIZE[name]
    elif fault == "pgm-truncate":
        name = "d.pgm"
        files[name] = PGM[:at % len(PGM)]
    elif fault == "pgm-header":
        name = "d.pgm"
        files[name] = PGM_FAULTS[pick % len(PGM_FAULTS)]
    else:
        name = "d.json"
        text = json.dumps(PLANE)
        if fault == "json-value":
            text = DEPTH_JSON_FAULTS[pick % len(DEPTH_JSON_FAULTS)]
        elif fault == "json-raw":
            raw = (DEEP, DIGITS, SYNTAX)[pick % 3]
            text = _with_raw(json.loads(text), f"{pick % 6}.{at % 8}", raw)
        elif fault == "json-truncate":
            text = text[:at % len(text)]
        files[name] = text.encode()
        if fault == "json-byte":
            files[name] = _insert_byte(files[name], at, BAD_BYTES[pick % 4])
    line = 2 if name == "d.pgm" else 3
    if at % 2:
        files["records.jsonl"] = _joined(_lines(_records()))
        return Case(files, ["evaluate", "records.jsonl"], ("records.jsonl", name), line,
                    f"depth {fault}")
    files["scenes.jsonl"] = _joined(_lines(_scenes()))
    return Case(files, ["extract", "scenes.jsonl"], ("scenes.jsonl", name), line,
                f"depth {fault}")


# ---------------------------------------------------------------------------
# whole-file JSON: --config and --profile

CONFIG = {"tau": 2.5, "min_score": 0.2}
CONFIG_FAULTS = [["tau", 1], {"speed": 1}, {"tau": "3"}, {"tau": True}, {"tau": None},
                 {"tau": [1]}, {"tau": 0}, {"tau": -1}, {"tau": float("nan")},
                 {"tau": float("inf")}, {"min_score": 2}, {"min_rel_area": -0.1},
                 {"max_center_dist": 0}, "tau"]
PROFILE = {"top_bottom": {"top": 0.4, "bottom": 0.3}, "left_right": {"left": 0.9, "right": 0.1}}
PROFILE_FAULTS = [[0.4, 0.3], {"up_down": {"up": 1, "down": 0}}, {"top_bottom": {"top": 0.4}},
                  {"top_bottom": [0.4, 0.3]}, {"top_bottom": {"top": "0.4", "bottom": 0.3}},
                  {"top_bottom": {"top": 1.5, "bottom": 0.3}},
                  {"top_bottom": {"top": None, "bottom": 0.3}},
                  {"top_bottom": {"top": True, "bottom": 0.3}}, 0.5]


def whole_file_case(kind: str, fault: str, pick: int, at: int) -> Case:
    base, faults, number_path = {
        "config": (CONFIG, CONFIG_FAULTS, "tau"),
        "profile": (PROFILE, PROFILE_FAULTS, "top_bottom.top"),
    }[kind]
    text = json.dumps(base)
    line = None
    if fault == "value":
        text = json.dumps(faults[pick % len(faults)])
    elif fault == "raw":
        text = _with_raw(json.loads(text), number_path, (DEEP, DIGITS, SYNTAX)[pick % 3])
    elif fault == "truncate":
        text = text[:at % len(text)]
    data = text.encode()
    if fault == "byte":
        data = _insert_byte(data, at, BAD_BYTES[pick % 4])
        line = 1
    name = f"{kind}.json"
    files = {name: data, "scenes.jsonl": _joined(_lines(_scenes())), "p.txt": _joined(PROMPTS),
             **SIDE_FILES}
    if kind == "config":
        return Case(files, ["extract", "scenes.jsonl", "--config", name], (name,), line,
                    f"config {fault}")
    return Case(files, ["tore", "--profile", name, "p.txt"], (name,), line, f"profile {fault}")


# ---------------------------------------------------------------------------
# text files: prompts (stub-gen, tore) and object and context lists

def prompt_case(command: str, fault: str, index: int, pick: int, at: int) -> Case:
    lines = [line.encode() for line in PROMPTS]
    index %= len(lines)
    if fault == "byte" or command == "tore":
        lines[index] = _insert_byte(lines[index], at, BAD_BYTES[pick % 4])
    else:  # stub-gen: a line outside the grammar, with other line breaks inside it
        lines[index] = ["not a prompt", "A bus\x0cto the right", "A bus beside a car",
                        "\rnot a prompt"][pick % 4].encode()
    data = b"".join(line + (b"\r\n" if at % 3 == 0 else b"\n") for line in lines)
    argv = ["tore", "--profile", "flux1", "p.txt"] if command == "tore" else ["stub-gen", "p.txt"]
    return Case({"p.txt": data}, argv, ("p.txt",), index + 1, f"{command} prompts {fault}")


LISTS = {"--objects": [b"bus", b"car", b"lamp", b"bench"], "--contexts": [b"city", b"park"]}


def list_case(command: str, flag: str, fault: str, index: int, pick: int, at: int) -> Case:
    lines = list(LISTS[flag])
    index %= len(lines)
    line = index + 1
    if fault == "byte":
        lines[index] = _insert_byte(lines[index], at, BAD_BYTES[pick % 4])
    elif fault == "duplicate" and flag == "--objects":
        lines.append(lines[index])
        line = len(lines)
    elif fault == "comma" and command == "gen-prompts":
        lines[index] += b", and more"
    else:  # a list of blank lines only
        lines, line = [b"", b" \t", b"\x0c"], None
    files = {"list.txt": b"".join(x + b"\n" for x in lines),
             "captions.jsonl": _joined(_lines(_captions()))}
    argv = (["gen-prompts", "--simple", "right=1"] if command == "gen-prompts"
            else ["filter-captions", "captions.jsonl"])
    return Case(files, [*argv, flag, "list.txt"], ("list.txt",), line, f"{command} {flag} {fault}")


def empty_case(command: str) -> Case:
    return Case({"r.jsonl": b"\n \n"}, [command, "r.jsonl"], ("r.jsonl",), None, "no records")


# ---------------------------------------------------------------------------

_N = st.integers(0, 10_000)

cases = st.one_of(
    st.builds(jsonl_case, st.sampled_from(["scenes", "records", "captions"]),
              st.sampled_from(["value", "deep", "digits", "syntax", "truncate", "byte"]),
              _N, _N, _N),
    st.builds(depth_file_case, st.sampled_from(["pgm-truncate", "pgm-header", "json-value",
                                                "json-raw", "json-truncate", "json-byte",
                                                "wrong-size"]),
              _N, _N),
    st.builds(whole_file_case, st.sampled_from(["config", "profile"]),
              st.sampled_from(["value", "raw", "truncate", "byte"]), _N, _N),
    st.builds(prompt_case, st.sampled_from(["stub-gen", "tore"]),
              st.sampled_from(["byte", "parse"]), _N, _N, _N),
    st.builds(list_case, st.sampled_from(["gen-prompts", "filter-captions"]),
              st.sampled_from(["--objects", "--contexts"]),
              st.sampled_from(["byte", "duplicate", "comma", "empty"]), _N, _N, _N),
    st.builds(empty_case, st.sampled_from(["evaluate", "bias-report"])),
)


def _run(case: Case) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in case.files.items():
            (root / name).write_bytes(data)
        argv = [str(root / a) if a in case.files else a for a in case.argv]
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(argv)
        return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(cases)
# the faults that each ended in a traceback: nesting in a scene line, in a
# record line with an inline plane, in a caption line, in --config and in
# --profile, and a depth JSON file past the digit limit
@example(jsonl_case("scenes", "deep", 0, 4, 0))
@example(jsonl_case("records", "deep", 0, 4, 0))
@example(jsonl_case("captions", "deep", 1, 0, 0))
@example(whole_file_case("config", "raw", 0, 0))
@example(whole_file_case("profile", "raw", 0, 0))
@example(depth_file_case("json-raw", 1, 0))
# a bad UTF-8 byte, and a PGM cut short in its raster
@example(jsonl_case("records", "byte", 1, 0, 7))
@example(depth_file_case("pgm-truncate", 0, 40))
# a bool in a depth grid: inline in a scene, inline in a record, in a JSON depth file
@example(jsonl_case("scenes", "value", 0, len(SCENE_VALUES) - 1, 0))
@example(jsonl_case("records", "value", 0, len(RECORD_VALUES) + len(SCENE_VALUES) - 1, 0))
@example(depth_file_case("json-value", len(DEPTH_JSON_FAULTS) - 1, 1))
def test_malformed_input_is_one_error_line(case):
    code, err = _run(case)
    lines = err.splitlines()
    assert code == 1, (case.label, err)
    assert len(lines) == 1 and lines[0].startswith("error: "), (case.label, err)
    for name in case.names:
        assert name in lines[0], (case.label, name, lines[0])
    if case.line is not None:
        assert f"(line {case.line}" in lines[0], (case.label, lines[0])


def test_fuzz_cases_are_valid_before_the_fault():
    # each base input runs clean, so the fault alone makes a case fail
    files = {"scenes.jsonl": _joined(_lines(_scenes())),
             "records.jsonl": _joined(_lines(_records())),
             "captions.jsonl": _joined(_lines(_captions())),
             "config.json": json.dumps(CONFIG).encode(),
             "profile.json": json.dumps(PROFILE).encode(),
             "p.txt": _joined(PROMPTS),
             "objects.txt": b"\n".join(LISTS["--objects"]),
             "contexts.txt": b"\n".join(LISTS["--contexts"]),
             **SIDE_FILES}
    for argv in (["extract", "scenes.jsonl", "--config", "config.json"],
                 ["evaluate", "records.jsonl"], ["bias-report", "records.jsonl"],
                 ["filter-captions", "captions.jsonl", "--objects", "objects.txt",
                  "--contexts", "contexts.txt"],
                 ["tore", "--profile", "profile.json", "p.txt"], ["stub-gen", "p.txt"],
                 ["gen-prompts", "--simple", "right=1", "--objects", "objects.txt",
                  "--contexts", "contexts.txt"]):
        assert _run(Case(files, argv, ())) == (0, ""), argv


# ---------------------------------------------------------------------------
# PGM depth files: checked at load, raster read on first use

def _pgm_files() -> list[bytes]:
    """Each malformed PGM case, every cut of two valid files, and headers that
    end around the last byte the reader takes at load."""
    wide = b"P5\n3 2\n65535\n" + bytes(range(12))
    files = [*PGM_FAULTS, *(PGM[:n] for n in range(len(PGM) + 1)),
             *(wide[:n] for n in range(len(wide) + 1))]
    tail = b"\n8 6\n255\n"
    for end in range(sceneio._PGM_HEAD - 8, sceneio._PGM_HEAD + 8):
        # a comment pads the header so that the raster starts at byte end
        padded = b"P5\n#" + b"x" * (end - 4 - len(tail)) + tail + PGM[11:]
        files += [padded, padded[:end - 1], padded[:end], padded[:end + 5]]
    # a file that does not start with the magic number is read as JSON
    return [data for data in files if data[:2] == b"P5"]


def _whole_read_pgm(data: bytes) -> list[list[int]]:
    """A binary PGM file's rows, from all its bytes at once: the reader's oracle.

    A bad file raises ValueError with the message the package's reader gives.
    Header tokens are separated by space, tab, CR or LF, and a '#' comments
    out the rest of its line; one whitespace byte ends the header.
    """
    tokens, pos = [], 0
    while len(tokens) < 4 and pos < len(data):
        if data[pos] in b" \t\r\n":
            pos += 1
        elif data[pos] == ord("#"):
            while pos < len(data) and data[pos] != ord("\n"):
                pos += 1
            pos += 1
        else:
            start = pos
            while pos < len(data) and data[pos] not in b" \t\r\n#":
                pos += 1
            tokens.append(data[start:pos])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise ValueError("not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValueError("PGM header fields must be integers") from None
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise ValueError(f"bad PGM header: {width}x{height}, maxval {maxval}")
    size = 2 if maxval > 255 else 1
    raster, need = data[pos + 1:], width * height * size
    if len(raster) < need:
        raise ValueError(f"PGM raster truncated: need {need} bytes, have {len(raster)}")
    values = [int.from_bytes(raster[i:i + size], "big") for i in range(0, need, size)]
    return [values[r * width:(r + 1) * width] for r in range(height)]


def test_pgm_is_checked_at_load_as_a_whole_read_checks_it(tmp_path):
    path = tmp_path / "d.pgm"
    for data in _pgm_files():
        path.write_bytes(data)
        try:
            want = "read", _whole_read_pgm(data)
        except ValueError as exc:
            want = "refused at load", str(exc)
        try:
            depth = sceneio.read_depth(path)
        except FormatError as exc:
            got = "refused at load", str(exc)
        else:
            got = "read", depth.values
        assert got == want, data[:24]


@pytest.mark.parametrize("command", ["extract", "evaluate"])
def test_pgm_shortened_after_load_is_one_error_line(tmp_path, monkeypatch, capsys, command):
    # the file is cut between its load and the first box mean, as by another writer
    load = sceneio.read_depth

    def read_then_cut(path):
        depth = load(path)
        Path(path).write_bytes(PGM[:20])
        return depth

    monkeypatch.setattr(sceneio, "read_depth", read_then_cut)
    (tmp_path / "d.pgm").write_bytes(PGM)
    scene = {"image_id": "s", "width": 8, "height": 6, "depth": "d.pgm", "objects": [
        {"label": "bus", "box": [1, 1, 5, 5]}, {"label": "car", "box": [0, 1, 4, 5]}]}
    if command == "evaluate":
        scene = {"id": "r", "prompt": "A bus in front of a car in a city", "scene": scene}
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(scene) + "\n")
    assert main([command, str(src)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {src}: depth file {tmp_path / 'd.pgm'}: PGM raster truncated: "
        f"need 48 bytes, have 9"]


@pytest.mark.parametrize("command", ["extract", "evaluate"])
@pytest.mark.parametrize("pad", [0, sceneio._PGM_HEAD], ids=["first-use", "whole-read"])
def test_pgm_sample_above_maxval_is_one_error_line(tmp_path, capsys, command, pad):
    # maxval 100 and a first sample of 200; a comment of pad bytes decides
    # whether the header ends within the bytes read at load, and either way a
    # maxval other than 255 or 65535 has the raster read and refused at load
    (tmp_path / "d.pgm").write_bytes(b"P5\n#" + b"x" * pad + b"\n8 6\n100\n"
                                     + bytes([200]) + PGM[12:])
    scene = {"image_id": "s", "width": 8, "height": 6, "depth": "d.pgm", "objects": [
        {"label": "bus", "box": [1, 1, 5, 5]}, {"label": "car", "box": [0, 1, 4, 5]}]}
    field = "depth"
    if command == "evaluate":
        scene = {"id": "r", "prompt": "A bus in front of a car in a city", "scene": scene}
        field = "scene.depth"
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(scene) + "\n")
    assert main([command, str(src)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {src}: depth file d.pgm: PGM value 200 above maxval 100 (line 1, field {field})"]


def test_pgm_sample_above_maxval_is_refused_where_no_box_mean_reads_it(tmp_path, capsys):
    # a lone object takes no depth mean, yet the file is refused when its scene loads
    (tmp_path / "d.pgm").write_bytes(b"P5\n8 6\n100\n" + bytes([200]) + PGM[12:])
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"image_id": "s", "width": 8, "height": 6, "depth": "d.pgm",
                               "objects": [{"label": "bus", "box": [1, 1, 5, 5]}]}) + "\n")
    assert main(["extract", str(src)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {src}: depth file d.pgm: PGM value 200 above maxval 100 (line 1, field depth)"]


# ---------------------------------------------------------------------------
# where an error is: each line number once, next to its own file


def _wrapped(command: str, scene: dict) -> tuple[dict, str]:
    """The scene as extract reads it, or wrapped in a record for evaluate, and its depth field."""
    if command == "extract":
        return scene, "depth"
    return {"id": "r", "prompt": "A bus in front of a car in a city", "scene": scene}, "scene.depth"


@pytest.mark.parametrize("command", ["extract", "evaluate"])
@pytest.mark.parametrize("name, data, reason", [
    ("d.json", b"[[1, 2],\n [3 4]]", "d.json line 2: invalid JSON: Expecting ',' delimiter"),
    ("d.pgm", b"P5\n0 6\n255\n", "d.pgm: bad PGM header: 0x6, maxval 255"),
], ids=["json", "pgm"])
def test_depth_file_fault_names_each_line_next_to_its_file(tmp_path, capsys, command, name,
                                                            data, reason):
    # the fault is on the depth file's line 2, and its scene on the scene file's line 3
    (tmp_path / name).write_bytes(data)
    record, field = _wrapped(command, {"image_id": "s", "width": 2, "height": 2, "depth": name})
    src = tmp_path / "in.jsonl"
    src.write_text("\n\n" + json.dumps(record) + "\n")
    assert main([command, str(src)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {src}: depth file {reason} (line 3, field {field})"
    assert line.count("line 3") == 1
    assert line.count("line 2") == (name == "d.json")


@pytest.mark.parametrize("command", ["extract", "evaluate"])
@pytest.mark.parametrize("depth", ["inline", "d.json"])
def test_bool_in_a_depth_grid_is_one_error_line(tmp_path, monkeypatch, capsys, command, depth):
    # JSON's true is a literal, not the number 1, wherever a depth grid is read
    grid = "[[true, 2], [3, 4]]"
    (tmp_path / "d.json").write_text(grid)
    record, field = _wrapped(command, {"image_id": "s", "width": 2, "height": 2,
                                       "depth": "GRID" if depth == "inline" else depth})
    src = tmp_path / "in.jsonl"
    src.write_text("\n" + json.dumps(record).replace('"GRID"', grid) + "\n")
    planes, plane = [], sceneio._plane
    monkeypatch.setattr(sceneio, "_plane", lambda text: planes.append(text) or plane(text))
    assert main([command, str(src)]) == 1
    named = "" if depth == "inline" else "depth file d.json: "
    assert capsys.readouterr().err.splitlines() == [
        f"error: {src}: {named}depth values must be numbers (line 2, field {field})"]
    # an inline plane in a record file is decoded through the plane memo first
    assert planes == ([grid] if (command, depth) == ("evaluate", "inline") else [])
