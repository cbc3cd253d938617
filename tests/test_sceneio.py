"""File formats: caption filtering, PGM depth maps, scene and record JSONL."""

from __future__ import annotations

import io
import json
import weakref
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatialbench import sceneio, textutil
from spatialbench.captions import (
    CaptionRecord,
    ObjectLexicon,
    caption_to_dict,
    filter_captions,
    load_captions,
)
from spatialbench.errors import DimensionMismatch, FormatError
from spatialbench.evaluation import EvalRecord
from spatialbench.extraction import DetectedObject, RelationInstance, Scene
from spatialbench.geometry import BoundingBox, DepthMap, average_depth
from spatialbench.lexicon import default_contexts, default_objects
from spatialbench.prompts import PromptSpec, RelationQuadruple, _normalized_context, parse_prompt
from spatialbench.relations import RelationKind
from spatialbench.sceneio import (
    eval_record_from_dict,
    eval_record_lines,
    eval_record_to_dict,
    load_eval_records,
    load_scenes,
    read_depth,
    relations_to_dict,
    scene_from_dict,
    scene_to_dict,
    write_depth_pgm,
    write_jsonl,
)
from spatialbench.stub import StubGeneratorConfig, stub_generate

LEX = ObjectLexicon(frozenset({"bus", "garage door"}), frozenset({"street", "downtown area"}))


def cap(text):
    return CaptionRecord(text)


class TestCaptionFilter:
    def test_object_and_context_kept(self):
        records = [cap("a red bus parked on a street downtown")]
        assert filter_captions(records, LEX) == records

    def test_no_match_dropped(self):
        assert filter_captions([cap("a bowl of fruit")], LEX) == []

    def test_whole_word_rule(self):
        # "business" must not match the object "bus"
        assert filter_captions([cap("business trip down the street")], LEX) == []

    def test_object_without_context_dropped(self):
        assert filter_captions([cap("a bus at dawn")], LEX) == []

    def test_multiword_phrase(self):
        assert filter_captions([cap("the garage door faces the street")], LEX) != []
        assert filter_captions([cap("the garage and door face the street")], LEX) == []

    def test_fold_and_case(self):
        assert filter_captions([cap("A BÚS ON THE STRÉET")], LEX) != []

    def test_order_preserved(self):
        records = [cap("bus on a street"), cap("nope"), cap("bus near a downtown area")]
        assert filter_captions(records, LEX) == [records[0], records[2]]

    def test_default_lexicon(self):
        lex = ObjectLexicon(frozenset(default_objects()), frozenset(default_contexts()))
        assert len(lex.objects) == 299
        assert len(lex.contexts) == 4
        kept = filter_captions([cap("a streetlight by a bench in the downtown area")], lex)
        assert len(kept) == 1

    def test_empty_caption_rejected(self):
        with pytest.raises(ValueError):
            CaptionRecord("   ")

    def test_lexicon_requires_normalized(self):
        with pytest.raises(ValueError):
            ObjectLexicon(frozenset({"Bus"}), frozenset({"street"}))
        with pytest.raises(ValueError):
            ObjectLexicon(frozenset(), frozenset({"street"}))

    def test_caption_jsonl(self, tmp_path):
        p = tmp_path / "caps.jsonl"
        rec = CaptionRecord("a bus", image="http://x/y.jpg", source="laion")
        write_jsonl(p, [caption_to_dict(rec)])
        assert load_captions(p) == [rec]
        p.write_text('{"caption": ""}\n')
        with pytest.raises(FormatError):
            load_captions(p)

    def test_sceneio_writes_through_textutil(self):
        # sceneio re-exports the writer rather than a copy of it
        assert sceneio.write_jsonl is textutil.write_jsonl


class TestDepthFiles:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 65536, size=(5, 9)).astype(np.float64)
        p = tmp_path / "d.pgm"
        write_depth_pgm(p, DepthMap(values.tolist()))
        got = read_depth(p)
        assert got.width == 9 and got.height == 5
        assert got.values == values.tolist()
        # the map read back is stored as uint16 and writes the same bytes
        assert got.flat.format == "H"
        again = tmp_path / "again.pgm"
        write_depth_pgm(again, got)
        assert again.read_bytes() == p.read_bytes()

    def test_float_depth_rounds_half_to_even_as_numpy(self, tmp_path):
        values = [[0.5, 1.5, 2.5, 3.49], [65534.5, 7.0, 0.0, 254.5]]
        write_depth_pgm(tmp_path / "d.pgm", DepthMap(values))
        got = read_depth(tmp_path / "d.pgm")
        assert got.values == np.rint(values).tolist() == [[0, 2, 2, 3], [65534, 7, 0, 254]]
        with pytest.raises(ValueError, match="round into"):
            write_depth_pgm(tmp_path / "e.pgm", DepthMap([[65535.5]]))

    def test_16bit_is_big_endian(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x01\x00")
        got = read_depth(p)
        assert got.values == [[256]]
        assert got.flat.format == "H"  # native byte order

    def test_8bit_read(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n4 3\n255\n" + bytes(range(12)))
        got = read_depth(p)
        assert got.values == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
        assert got.flat.format == "B"

    def test_header_comments(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n# produced by a depth estimator\n2 2\n# maxval next\n255\n" + bytes(4))
        assert read_depth(p).values == [[0, 0], [0, 0]]

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="truncated"):
            read_depth(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n2 2\n0\n" + bytes(4))
        with pytest.raises(FormatError):
            read_depth(p)

    @pytest.mark.parametrize("maxval, raster, top", [
        (1000, (5000).to_bytes(2, "big") + (7).to_bytes(2, "big"), 5000),
        (100, bytes([200, 7]), 200),
    ], ids=["16-bit", "8-bit"])
    def test_sample_above_maxval_refused(self, tmp_path, maxval, raster, top):
        p = tmp_path / "d.pgm"
        # whether or not the header fits the bytes read at load, the raster of a
        # maxval other than 255 or 65535 is read and refused at load
        for pad in (b"", b"#" + b"x" * sceneio._PGM_HEAD + b"\n"):
            p.write_bytes(b"P5\n" + pad + b"2 1\n%d\n" % maxval + raster)
            with pytest.raises(FormatError) as info:
                read_depth(p)
            assert str(info.value) == f"PGM value {top} above maxval {maxval}"

    @pytest.mark.parametrize("pad", [0, sceneio._PGM_HEAD], ids=["first-use", "whole-read"])
    def test_sample_at_maxval_read(self, tmp_path, pad):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n#" + b"x" * pad + b"\n2 1\n1000\n" + bytes([3, 232, 0, 7]))
        assert read_depth(p).values == [[1000, 7]]

    def test_json_array_file(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("[[1, 2], [3, 4]]")
        assert read_depth(p).values == [[1, 2], [3, 4]]

    def test_ragged_json_rejected(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("[[1, 2], [3]]")
        with pytest.raises(FormatError, match="must form a non-empty 2D grid"):
            read_depth(p)

    @pytest.mark.parametrize("grid", ['[[{}, 1]]', "[[true, false]]", '[["1", 2]]'])
    def test_non_number_json_rejected(self, tmp_path, grid):
        p = tmp_path / "d.json"
        p.write_text(grid)
        with pytest.raises(FormatError, match="depth values must be numbers"):
            read_depth(p)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "d.bin"
        p.write_bytes(b"\x89PNG not really")
        with pytest.raises(FormatError, match="invalid UTF-8 byte 0x89 at byte offset 0"):
            read_depth(p)



def _pgm_header_by_bytes(data: bytes) -> tuple[list[bytes], int]:
    """The header scan as a byte-at-a-time loop: the oracle for sceneio._pgm_header."""
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


@given(st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"#", b"P5", b"12", b"\x0b",
                                 b"\x0c", b"\xff", b"\x00"]), max_size=24).map(b"".join))
@settings(max_examples=2000, deadline=None)
@example(b"P5 #4 4 255")  # a field-like run inside a final comment is not a field
@example(b"P5\n4 4\n255\n" + bytes(4))
def test_pgm_header_pattern_equals_the_byte_scan(data):
    assert sceneio._pgm_header(data) == _pgm_header_by_bytes(data)


class TestPgmReadOnFirstUse:
    ROWS = [[(x * y) % 7 for x in range(4)] for y in range(3)]

    def _load(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, DepthMap(self.ROWS))
        return path, read_depth(path)

    def test_raster_is_read_on_first_use(self, tmp_path):
        path, depth = self._load(tmp_path)
        assert (depth.width, depth.height, repr(depth)) == (4, 3, "DepthMap(4x3)")
        # the raster changes after load and before first use: the new one is read
        data = path.read_bytes()
        path.write_bytes(data[:-24] + b"".join(v.to_bytes(2, "big") for v in range(100, 112)))
        assert depth.values == [[x + 4 * y for x in range(100, 104)] for y in range(3)]
        # once read, the map no longer reads its file
        path.write_bytes(b"")
        assert depth.flat.tolist() == list(range(100, 112))

    @pytest.mark.parametrize("use", [
        lambda d, rows: d.values,
        lambda d, rows: d.flat,
        lambda d, rows: hash(d),
        lambda d, rows: d == DepthMap(rows),
        lambda d, rows: DepthMap(rows) == d,
        lambda d, rows: average_depth(d, BoundingBox(0, 0, 2, 2)),
    ], ids=["values", "flat", "hash", "eq", "eq-reflected", "average_depth"])
    def test_every_use_reads_the_raster(self, tmp_path, use):
        path, depth = self._load(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        # a failed read is not kept, so the next use fails alike
        for _ in range(2):
            with pytest.raises(FormatError) as info:
                use(depth, self.ROWS)
            assert str(info.value) == (f"depth file {path}: PGM raster truncated: "
                                       f"need 24 bytes, have 23")
        # the same file read whole again is refused at load
        with pytest.raises(FormatError, match="truncated"):
            read_depth(path)

    def test_read_maps_compare_and_hash_by_value(self, tmp_path):
        _, depth = self._load(tmp_path)
        assert depth == DepthMap(self.ROWS) and hash(depth) == hash(DepthMap(self.ROWS))
        assert depth.flat.format == "H"

    def test_removed_file_names_it(self, tmp_path):
        path, depth = self._load(tmp_path)
        path.unlink()
        with pytest.raises(FormatError, match=f"cannot read depth file: .*{path.name}"):
            depth.values

    def test_scene_holds_a_map_read_on_first_use(self, tmp_path):
        path, _ = self._load(tmp_path)
        record = minimal_record(width=4, height=3, depth="d.pgm",
                                objects=[{"label": "bench", "box": [0, 0, 2, 2]}])
        scene = scene_from_dict(record, base_dir=tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match=f"depth file {path}: PGM raster truncated"):
            scene_to_dict(scene)


def minimal_record(**extra):
    record = {
        "image_id": "img-1",
        "width": 100,
        "height": 80,
        "objects": [{"label": "bench", "box": [10, 10, 30, 30], "score": 0.9}],
    }
    record.update(extra)
    return record


class TestSceneParsing:
    def test_minimal_record(self):
        scene = scene_from_dict(minimal_record())
        assert scene.image_id == "img-1"
        assert len(scene.objects) == 1
        assert scene.objects[0].label == "bench"
        assert scene.objects[0].box == BoundingBox(10, 10, 30, 30)
        assert scene.objects[0].score == 0.9
        assert scene.depth is None and scene.context is None

    def test_integer_image_id_coerced(self):
        assert scene_from_dict(minimal_record(image_id=7)).image_id == "7"

    def test_score_defaults_to_one(self):
        record = minimal_record()
        del record["objects"][0]["score"]
        assert scene_from_dict(record).objects[0].score == 1.0

    def test_missing_image_id(self):
        record = minimal_record()
        del record["image_id"]
        with pytest.raises(FormatError) as info:
            scene_from_dict(record, line=3)
        assert info.value.field == "image_id" and info.value.line == 3

    @pytest.mark.parametrize("width", [
        "wide", -5, 0, True, float("nan"),
        pytest.param(10 ** 400, id="past-float-range"),
    ])
    def test_bad_width(self, width):
        with pytest.raises(FormatError):
            scene_from_dict(minimal_record(width=width))

    def test_inverted_box(self):
        record = minimal_record(objects=[{"label": "a", "box": [30, 10, 10, 30]}])
        with pytest.raises(FormatError) as info:
            scene_from_dict(record)
        assert info.value.field == "objects[0]"

    def test_box_wrong_arity(self):
        record = minimal_record(objects=[{"label": "a", "box": [1, 2, 3]}])
        with pytest.raises(FormatError):
            scene_from_dict(record)

    def test_box_clipped_to_image(self):
        record = minimal_record(objects=[
            {"label": "a", "box": [-5, -5, 20, 20]},
            {"label": "b", "box": [90, 0, 120, 10]},
        ])
        scene = scene_from_dict(record)
        assert scene.objects[0].box == BoundingBox(0, 0, 20, 20)
        assert scene.objects[1].box == BoundingBox(90, 0, 100, 10)

    def test_box_fully_outside(self):
        record = minimal_record(objects=[{"label": "a", "box": [150, 0, 200, 10]}])
        with pytest.raises(FormatError, match="outside"):
            scene_from_dict(record)

    def test_bad_score(self):
        record = minimal_record(objects=[{"label": "a", "box": [0, 0, 5, 5], "score": 1.5}])
        with pytest.raises(FormatError):
            scene_from_dict(record)

    @pytest.mark.parametrize("score", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
    def test_score_past_float_range(self, score):
        record = minimal_record(objects=[{"label": "a", "box": [0, 0, 5, 5], "score": score}])
        with pytest.raises(FormatError, match=r"score must be in \[0, 1\]") as info:
            scene_from_dict(record, line=2)
        assert (info.value.line, info.value.field) == (2, "objects[0]")

    @pytest.mark.parametrize("box", [[-10 ** 400, 0, 5, 5], [0, 0, 5, 10 ** 400]],
                             ids=["min", "max"])
    def test_box_past_float_range(self, box):
        record = minimal_record(objects=[{"label": "a", "box": box}])
        with pytest.raises(FormatError, match="box coordinates must be finite") as info:
            scene_from_dict(record)
        assert info.value.field == "objects[0]"

    def test_inline_depth(self):
        depth = [[0] * 100 for _ in range(80)]
        scene = scene_from_dict(minimal_record(depth=depth))
        assert scene.depth is not None and scene.depth.width == 100

    def test_wrong_size_depth_is_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch) as info:
            scene_from_dict(minimal_record(depth=[[0, 1], [2, 3]]), line=4)
        assert isinstance(info.value, FormatError)
        assert (info.value.line, info.value.field) == (4, "depth")

    @pytest.mark.parametrize("grid", [[[{}, 1]], [[True, False]], [["1", 2]]])
    def test_non_number_inline_depth_rejected(self, grid):
        with pytest.raises(FormatError, match="depth values must be numbers") as info:
            scene_from_dict(minimal_record(depth=grid))
        assert info.value.field == "depth"

    def test_ragged_inline_depth_rejected(self):
        with pytest.raises(FormatError, match="must form a non-empty 2D grid") as info:
            scene_from_dict(minimal_record(depth=[[1, 2], [3]]))
        assert info.value.field == "depth"

    def test_bool_among_ints_is_refused(self):
        # a JSON true is a literal, not the number 1
        depth = [[0] * 100 for _ in range(80)]
        depth[0][0] = True
        with pytest.raises(FormatError, match="depth values must be numbers") as info:
            scene_from_dict(minimal_record(depth=depth), line=3)
        assert (info.value.line, info.value.field) == (3, "depth")

    def test_depth_wrong_type(self):
        with pytest.raises(FormatError):
            scene_from_dict(minimal_record(depth=42))

    def test_context_carried(self):
        scene = scene_from_dict(minimal_record(context="Street"))
        assert scene.context == "street"

    def test_round_trip(self):
        depth = DepthMap(np.arange(100 * 80).reshape(80, 100).tolist())
        scene = Scene(
            "rt", 100, 80,
            (DetectedObject("tree", BoundingBox(1, 2, 3.5, 4), 0.25),),
            depth=depth, context="city",
        )
        again = scene_from_dict(scene_to_dict(scene))
        assert again == scene

    @pytest.mark.parametrize("grid, text", [
        # integers past int64 keep every digit
        ([[2.0**70, 1.0], [3.0, 0.0]], "[[1180591620717411303424, 1], [3, 0]]"),
        ([[2.0**63, 2.0**62]], "[[9223372036854775808, 4611686018427387904]]"),
        ([[0.5, 1.0], [2.0**70, 3.25]], "[[0.5, 1.0], [1.1805916207174113e+21, 3.25]]"),
        ([[-0.0, 1.0]], "[[0, 1]]"),
        ([[-0.0, 1.5]], "[[-0.0, 1.5]]"),
        (np.array([[0, 65535], [7, 256]], dtype=np.uint16).tolist(), "[[0, 65535], [7, 256]]"),
    ])
    def test_depth_encoding_bytes(self, grid, text):
        depth = DepthMap(grid)
        scene = Scene("d", depth.width, depth.height, depth=depth)
        assert json.dumps(scene_to_dict(scene)["depth"]) == text

    def test_integer_depth_encodes_as_python_ints(self):
        values = np.random.default_rng(3).integers(0, 65536, (128, 128))
        depth = DepthMap(values.tolist())
        scene = Scene("d", 128, 128, depth=depth)
        encoded = scene_to_dict(scene)["depth"]
        assert all(type(v) is int for row in encoded for v in row)
        assert encoded == values.tolist()

    def test_jsonl_loading(self, tmp_path):
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [scene_to_dict(scene_from_dict(minimal_record()))])
        assert len(list(load_scenes(p))) == 1

    def test_scenes_load_lazily(self, tmp_path, monkeypatch):
        write_depth_pgm(tmp_path / "d.pgm", DepthMap(np.zeros((80, 100), dtype=np.uint16).tolist()))
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [minimal_record(depth="d.pgm")] * 3)
        calls = []
        monkeypatch.setattr(sceneio, "read_depth",
                            lambda path: calls.append(path) or read_depth(path))
        scenes = load_scenes(p)
        assert calls == []
        next(scenes)
        assert len(calls) == 1

    def test_jsonl_line_numbers(self, tmp_path):
        p = tmp_path / "scenes.jsonl"
        good = json.dumps(minimal_record())
        p.write_text(good + "\n{oops\n")
        with pytest.raises(FormatError) as info:
            list(load_scenes(p))
        assert info.value.line == 2

    def test_jsonl_bad_utf8_names_line(self, tmp_path):
        p = tmp_path / "scenes.jsonl"
        good = json.dumps(minimal_record()).encode()
        p.write_bytes(good + b"\n" + good.replace(b"img-1", b"caf\xe9") + b"\n")
        with pytest.raises(FormatError, match="0xe9") as info:
            list(load_scenes(p))
        assert info.value.line == 2

    def test_non_number_depth_file_names_line_and_field(self, tmp_path):
        (tmp_path / "d.json").write_text("[[{}, 1]]")
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [minimal_record(depth="d.json")])
        with pytest.raises(FormatError, match="depth values must be numbers") as info:
            list(load_scenes(p))
        assert (info.value.line, info.value.field) == (1, "depth")

    def test_ragged_depth_file_names_line_and_field(self, tmp_path):
        (tmp_path / "d.json").write_text("[[1, 2], [3]]")
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [minimal_record(), minimal_record(depth="d.json")])
        with pytest.raises(FormatError, match="must form a non-empty 2D grid") as info:
            list(load_scenes(p))
        assert (info.value.line, info.value.field) == (2, "depth")

    def test_depth_path_resolved_relative(self, tmp_path):
        write_depth_pgm(tmp_path / "d.pgm", DepthMap(np.zeros((80, 100)).tolist()))
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [minimal_record(depth="d.pgm")])
        scene = list(load_scenes(p))[0]
        assert scene.depth is not None and scene.depth.height == 80

    def test_wrong_size_pgm_is_dimension_mismatch(self, tmp_path):
        write_depth_pgm(tmp_path / "d.pgm", DepthMap(np.zeros((8, 10)).tolist()))
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [minimal_record(depth="d.pgm")])
        with pytest.raises(DimensionMismatch) as info:
            list(load_scenes(p))
        assert (info.value.line, info.value.field) == (1, "depth")

    def test_missing_depth_file(self, tmp_path):
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [minimal_record(depth="gone.pgm")])
        with pytest.raises(FormatError) as info:
            list(load_scenes(p))
        assert info.value.field == "depth"


class TestRelationsOutput:
    def test_shape(self):
        scene = scene_from_dict(minimal_record(context="city"))
        rels = [RelationInstance(RelationKind.RIGHT, 1, (0,))]
        out = relations_to_dict(scene, rels)
        assert out == {
            "image_id": "img-1",
            "relations": [{"kind": "right", "subject": 1, "objects": [0], "context": "city"}],
        }

    def test_context_omitted_when_absent(self):
        scene = scene_from_dict(minimal_record())
        out = relations_to_dict(scene, [RelationInstance(RelationKind.NEXT, 0, (1,))])
        assert "context" not in out["relations"][0]


class TestEvalRecords:
    def record_dict(self):
        return {
            "id": "r1",
            "prompt": "A bench to the right of a tree in a city",
            "scene": minimal_record(),
        }

    def test_parse_and_round_trip(self):
        record = eval_record_from_dict(self.record_dict())
        assert record.record_id == "r1"
        assert record.prompt == parse_prompt("A bench to the right of a tree in a city")
        assert eval_record_from_dict(eval_record_to_dict(record)) == record

    def test_bad_prompt(self):
        d = self.record_dict()
        d["prompt"] = "a photo of a dog"
        with pytest.raises(FormatError) as info:
            eval_record_from_dict(d, line=9)
        assert info.value.field == "prompt" and info.value.line == 9

    def test_missing_scene(self):
        d = self.record_dict()
        del d["scene"]
        with pytest.raises(FormatError):
            eval_record_from_dict(d)

    def test_nested_field_path(self):
        d = self.record_dict()
        d["scene"]["objects"][0]["box"] = [5, 5, 1, 1]
        with pytest.raises(FormatError) as info:
            eval_record_from_dict(d)
        assert info.value.field == "scene.objects[0]"

    def test_jsonl_round_trip(self, tmp_path):
        record = eval_record_from_dict(self.record_dict())
        p = tmp_path / "records.jsonl"
        write_jsonl(p, [eval_record_to_dict(record)])
        assert list(load_eval_records(p)) == [record]


# ---------------------------------------------------------------------------
# record lines: each depth map's rows encoded once and spliced in

def _record(record_id: str, depth: DepthMap | None, *, label: str = "bench",
            phrase: str = "tree", context: str | None = "city") -> EvalRecord:
    width, height = (depth.width, depth.height) if depth is not None else (4, 3)
    # a prompt needs a context; a scene may have none
    spec = PromptSpec((RelationQuadruple(phrase, RelationKind.FRONT, (label,)),), context or "city")
    scene = Scene(record_id, float(width), float(height),
                  (DetectedObject(label, BoundingBox(0, 0, width, height), 0.5),),
                  depth=depth, context=context)
    return EvalRecord(record_id, spec, scene)


def _expected_line(record: EvalRecord) -> str:
    return json.dumps(eval_record_to_dict(record), sort_keys=True)


# strings a splice could trip on: the marker itself, quotes, backslashes, non-ASCII
_TRICKY = st.one_of(
    st.sampled_from(['"depth": null', '{"depth": null}', 'say "hi"', "back\\slash \\",
                     "café", "深度 map", "\\\"depth\\\": null"]),
    st.text(alphabet='"\\: {}depthnulé雪', min_size=1, max_size=12),
).filter(lambda s: s.split() and "," not in s)

# whole-number floats encode as ints; -0.0 keeps its sign only in a non-whole float grid
_GRID_VALUES = {
    "int": st.integers(0, 2 ** 40),
    "float": st.sampled_from([0.0, -0.0, 0.5, 2.25, 1e-7, 3.0, 1e300]),
    "whole float": st.sampled_from([0.0, -0.0, 1.0, 7.0, 2.0 ** 52]),
}


@st.composite
def depth_maps(draw) -> DepthMap:
    height, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = _GRID_VALUES[draw(st.sampled_from(sorted(_GRID_VALUES)))]
    return DepthMap([[draw(values) for _ in range(width)] for _ in range(height)])


@st.composite
def record_lists(draw) -> list[EvalRecord]:
    # records pick from a small pool of maps, so some share a map and some have none
    pool = [None, *draw(st.lists(depth_maps(), min_size=1, max_size=3))]
    records = []
    for i in range(draw(st.integers(1, 6))):
        phrase, label = draw(_TRICKY), draw(_TRICKY)
        context = draw(st.none() | _TRICKY)
        try:
            context = None if context is None else _normalized_context(context)
        except ValueError:  # an "in a" marker inside the context
            context = None
        records.append(_record(f"{draw(_TRICKY)}-{i}", draw(st.sampled_from(pool)),
                               label=label, phrase=phrase, context=context))
    return records


class TestEvalRecordLines:
    @given(record_lists())
    def test_each_line_is_the_record_dict_encoded(self, records):
        assert list(eval_record_lines(records)) == [_expected_line(r) for r in records]

    @given(record_lists())
    def test_marker_occurs_once_per_record_with_depth(self, records):
        # the splice relies on this: a scene's null depth is the one match
        for record in records:
            obj = eval_record_to_dict(record)
            if "depth" in obj["scene"]:
                obj["scene"]["depth"] = None
                assert json.dumps(obj, sort_keys=True).count('"depth": null') == 1

    def test_equal_maps_of_different_text_are_kept_apart(self):
        # these maps compare and hash equal, but their rows encode differently
        maps = [DepthMap([[0.5, 0.0]]), DepthMap([[0.5, -0.0]]),
                DepthMap([[1, 2, 3, 4]]), DepthMap(array("q", [1, 2, 3, 4]), shape=(2, 2))]
        assert maps[0] == maps[1] and hash(maps[0]) == hash(maps[1])
        records = [_record(f"r{i}", depth) for i, depth in enumerate(maps * 2)]
        assert list(eval_record_lines(records)) == [_expected_line(r) for r in records]

    def test_only_the_scene_depth_is_spliced(self, monkeypatch):
        # a scene's depth key sorts before its objects, so the first null depth
        # of a line is the scene's; were an object to carry one, it stays null
        scene_to_dict = sceneio.scene_to_dict

        def with_object_depth(scene, **kwargs):
            out = scene_to_dict(scene, **kwargs)
            for obj in out["objects"]:
                obj["depth"] = None
            return out

        monkeypatch.setattr(sceneio, "scene_to_dict", with_object_depth)
        plane = DepthMap(array("q", range(12)), shape=(3, 4))
        records = [_record("a", plane), _record("b", plane)]
        assert list(eval_record_lines(records)) == [_expected_line(r) for r in records]

    def test_maps_freed_mid_write_are_not_confused(self):
        # each map lives only as long as its record, so a freed map's id can be
        # handed to the next one while the lines are being written
        expected = []

        def records():
            for i in range(64):
                record = _record(f"r{i}", DepthMap(array("q", [i] * 6), shape=(2, 3)))
                expected.append(_expected_line(record))
                yield record

        assert list(eval_record_lines(records())) == expected

    def test_written_through_write_jsonl(self, tmp_path):
        plane = DepthMap(array("q", range(12)), shape=(3, 4))
        records = [_record("a", plane), _record("b", None), _record("c", plane)]
        path, stream = tmp_path / "records.jsonl", io.StringIO()
        write_jsonl(path, eval_record_lines(records))
        write_jsonl(stream, eval_record_lines(records))
        text = "".join(_expected_line(r) + "\n" for r in records)
        assert path.read_text(encoding="utf-8") == stream.getvalue() == text
        assert list(load_eval_records(path)) == records


def test_write_jsonl_is_canonical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(a, [{"z": 1, "a": 2}])
    write_jsonl(b, [{"a": 2, "z": 1}])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == '{"a": 2, "z": 1}\n'


# ---------------------------------------------------------------------------
# reading: a repeated inline plane decoded once, proven equal to a plain decode

def _plain_load(path, from_dict):
    """The readers as a json.loads per line: same records or the same error."""
    with open(path, "rb") as fh:
        for line_no, data in enumerate(fh, start=1):
            text = data.decode("utf-8").strip()
            if not text:
                continue
            try:
                value = json.loads(text)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc.msg}", line=line_no) from None
            except ValueError as exc:
                raise FormatError(f"invalid JSON: {exc}", line=line_no) from None
            except RecursionError:
                raise FormatError("invalid JSON: nested too deeply", line=line_no) from None
            yield from_dict(value, base_dir=path.parent, line=line_no)


def _outcome(items) -> list:
    """Everything a reader yields, then the error it stops on, if any."""
    out = []
    try:
        out.extend(items)
    except FormatError as exc:
        out.append((type(exc), str(exc), exc.line, exc.field))
    return out


_PROMPT = json.dumps("A bench in front of a tree in a city")

# planes that fail on their own or with the bracket after them; then ones whose
# next characters make the line invalid JSON, though a digit in the plane's
# place would read as a float
_BAD_PLANES = ["[[1, 2], [3]]", "[[-1, 2]]", "[[NaN, 1]]", "[[1%s, 2]]" % ("0" * 4400),
               "[[true, false]]", '[[1, "2"]]', "[[]]", "[[1, 2]]]",
               "[[%s1, 2%s]]" % ("[" * 3000, "]" * 3000)]
_FLOAT_TAILS = ["[[1, 2]].0", "[[1, 2]]e1", "[[1, 2]]E0"]


def _member(key: str, value: str) -> str:
    return f"{json.dumps(key)}: {value}"


@st.composite
def scene_lines(draw) -> list[str]:
    """Scene lines of one shape (1 x 2) that mostly share a few planes.

    A line may carry no depth, a shared plane, a fresh one, a hand-spaced
    one, a bad one, a literal, two depth keys, a key that holds the text
    '"depth": [' or an object with its own depth.
    """
    grids = st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=2), min_size=1, max_size=1)
    pool = [json.dumps(g) for g in draw(st.lists(grids, min_size=1, max_size=3))]
    spaced = st.sampled_from(["[[1,2]]", "[ [1, 2]]", "[[1, 2] ]", "[[ 1 , 2 ]]"])
    shared = st.sampled_from(pool)
    depth = st.one_of(shared, shared, shared, grids.map(json.dumps), spaced,
                      st.sampled_from(["0", "0", "1", "null", "[[0.5, 2.0]]"]),
                      st.sampled_from(_BAD_PLANES), st.sampled_from(_FLOAT_TAILS))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        obj = [_member("label", json.dumps(draw(st.sampled_from(
                   ["bench", '"depth": [[1, 2]]', pool[0]])))),
               _member("box", "[0, 0, 2, 1]")]
        if draw(st.booleans()):
            obj.append(_member("depth", draw(depth)))
        members = [
            _member("image_id", json.dumps(draw(st.sampled_from(["img", pool[0], '"depth": 0'])))),
            _member("width", "2"), _member("height", "1"),
            _member("objects", "[{%s}]" % ", ".join(draw(st.permutations(obj)))),
            *(_member("depth", draw(depth)) for _ in range(draw(st.integers(0, 2)))),
        ]
        if draw(st.integers(0, 3)) == 0:
            members.append(_member('a"depth', draw(depth)))
        lines.append("{%s}" % ", ".join(draw(st.permutations(members))))
    return lines


def _as_records(lines: list[str]) -> list[str]:
    return ['{"id": "r%d", "prompt": %s, "scene": %s}' % (i, _PROMPT, line)
            for i, line in enumerate(lines)]


class TestSharedPlaneReading:
    @given(scene_lines())
    # a literal depth after a key that holds the candidate: only the 1 parse tells
    @example(['{"a\\"depth": [[1, 2]], "image_id": "[[1, 2]]", "width": 2, "height": 1, '
              '"depth": 0}'])
    # an object's own depth before the scene's, and a duplicate key that wins
    @example(['{"objects": [{"label": "bench", "box": [0, 0, 2, 1], "depth": [[1, 2]]}], '
              '"image_id": "img", "width": 2, "height": 1, "depth": [[3, 4]]}',
              '{"depth": [[1, 2]], "image_id": "img", "width": 2, "height": 1, "depth": null}',
              '{"depth": 0, "image_id": "img", "width": 2, "height": 1, "depth": [[1, 2]]}'])
    # a label that quotes a plane, then planes that differ from the one before
    @example(['{"image_id": "img", "width": 2, "height": 1, "depth": [[1, 2]], '
              '"objects": [{"label": "\\"depth\\": [[1]]", "box": [0, 0, 2, 1]}]}',
              '{"image_id": "img", "width": 2, "height": 1, "depth": [[3, 4]]}',
              '{"image_id": "img", "width": 2, "height": 1, "depth": [[3, 4]]}',
              '{"image_id": "img", "width": 2, "height": 1, "depth": [[1, 2]]}'])
    @example(['{"image_id": "img", "width": 2, "height": 1, "depth": [[1, 2]]}',
              '{"image_id": "img", "width": 2, "height": 1, "depth": %s}' % _BAD_PLANES[3]])
    # a plane nested past the recursion limit
    @example(['{"image_id": "img", "width": 2, "height": 1, "depth": %s}' % _BAD_PLANES[-1]])
    @example(['{"image_id": "img", "width": 2, "height": 1, "depth": [[1, 2]].0}'])
    @settings(deadline=None)
    def test_readers_agree_with_a_plain_decode(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("lines") / "lines.jsonl"
        for readers, texts in (
            ((load_scenes, scene_from_dict), lines),
            ((load_eval_records, eval_record_from_dict), _as_records(lines)),
        ):
            path.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
            reader, from_dict = readers
            assert _outcome(reader(path)) == _outcome(_plain_load(path, from_dict))

    def test_consecutive_stub_records_share_one_map(self, tmp_path):
        prompts = [parse_prompt(f"A bench {kind} a tree in a city")
                   for kind in ("in front of", "behind", "in front of")]
        records, _ = stub_generate(prompts, StubGeneratorConfig(seed=3))
        other = _record("other", DepthMap(array("q", range(1, 13)), shape=(3, 4)))
        path = tmp_path / "records.jsonl"
        write_jsonl(path, eval_record_lines([*records, other]))
        loaded = load_eval_records(path)
        first = [next(loaded) for _ in records]
        assert first == records
        assert all(r.scene.depth is first[0].scene.depth for r in first)
        # a different plane takes the memo's one entry; the last map is let go
        gone = weakref.ref(first[0].scene.depth)
        del first
        assert next(loaded) == other
        assert gone() is None

    def test_scene_from_dict_takes_a_depth_map_as_is(self):
        plane = DepthMap([[0] * 100 for _ in range(80)])
        assert scene_from_dict(minimal_record(depth=plane)).depth is plane
        with pytest.raises(DimensionMismatch) as info:
            scene_from_dict(minimal_record(depth=DepthMap([[1, 2]])), line=5)
        assert (info.value.line, info.value.field) == (5, "depth")
