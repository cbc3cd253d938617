"""File formats: caption filtering, PGM depth maps, scene and record JSONL."""

from __future__ import annotations

import json

import numpy as np
import pytest

from spatialbench import captions, sceneio
from spatialbench.captions import (
    CaptionRecord,
    ObjectLexicon,
    caption_to_dict,
    filter_captions,
    load_captions,
)
from spatialbench.errors import DimensionMismatch, FormatError
from spatialbench.extraction import DetectedObject, RelationInstance, Scene
from spatialbench.geometry import BoundingBox, DepthMap
from spatialbench.lexicon import default_contexts, default_objects
from spatialbench.prompts import parse_prompt
from spatialbench.relations import RelationKind
from spatialbench.sceneio import (
    eval_record_from_dict,
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

    def test_sceneio_writes_through_the_caption_module(self):
        # sceneio re-exports the numpy-free writer rather than a copy of it
        assert sceneio.write_jsonl is captions.write_jsonl


class TestDepthFiles:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 65536, size=(5, 9)).astype(np.float64)
        p = tmp_path / "d.pgm"
        write_depth_pgm(p, DepthMap(values))
        got = read_depth(p)
        assert got.width == 9 and got.height == 5
        np.testing.assert_array_equal(got.values, values)
        # the map read back is uint16 and writes the same bytes
        assert got.values.dtype == np.uint16
        again = tmp_path / "again.pgm"
        write_depth_pgm(again, got)
        assert again.read_bytes() == p.read_bytes()

    def test_float_depth_rounds_half_to_even_as_numpy(self, tmp_path):
        values = [[0.5, 1.5, 2.5, 3.49], [65534.5, 7.0, 0.0, 254.5]]
        write_depth_pgm(tmp_path / "d.pgm", DepthMap(values))
        got = read_depth(tmp_path / "d.pgm")
        assert got.values.tolist() == np.rint(values).tolist() == [[0, 2, 2, 3],
                                                                   [65534, 7, 0, 254]]
        with pytest.raises(ValueError, match="round into"):
            write_depth_pgm(tmp_path / "e.pgm", DepthMap([[65535.5]]))

    def test_16bit_is_big_endian(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x01\x00")
        got = read_depth(p)
        assert got.values[0, 0] == 256.0
        assert got.values.dtype == np.uint16  # native byte order

    def test_8bit_read(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n4 3\n255\n" + bytes(range(12)))
        got = read_depth(p)
        np.testing.assert_array_equal(got.values, np.arange(12).reshape(3, 4))
        assert got.values.dtype == np.uint8

    def test_header_comments(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P5\n# produced by a depth estimator\n2 2\n# maxval next\n255\n" + bytes(4))
        assert read_depth(p).values.shape == (2, 2)

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

    def test_json_array_file(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("[[1, 2], [3, 4]]")
        np.testing.assert_array_equal(read_depth(p).values, [[1, 2], [3, 4]])

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
        with pytest.raises(FormatError, match="neither PGM nor JSON"):
            read_depth(p)


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

    @pytest.mark.parametrize("width", ["wide", -5, 0, True, float("nan")])
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

    def test_bool_among_ints_is_upcast(self):
        depth = [[0] * 100 for _ in range(80)]
        depth[0][0] = True
        scene = scene_from_dict(minimal_record(depth=depth))
        assert scene.depth.values[0, 0] == 1.0

    def test_depth_wrong_type(self):
        with pytest.raises(FormatError):
            scene_from_dict(minimal_record(depth=42))

    def test_context_carried(self):
        scene = scene_from_dict(minimal_record(context="Street"))
        assert scene.context == "street"

    def test_round_trip(self):
        depth = DepthMap(np.arange(100 * 80).reshape(80, 100))
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
        (np.array([[0, 65535], [7, 256]], dtype=np.uint16), "[[0, 65535], [7, 256]]"),
    ])
    def test_depth_encoding_bytes(self, grid, text):
        depth = DepthMap(grid)
        scene = Scene("d", depth.width, depth.height, depth=depth)
        assert json.dumps(scene_to_dict(scene)["depth"]) == text

    def test_integer_depth_encodes_as_python_ints(self):
        values = np.random.default_rng(3).integers(0, 65536, (128, 128))
        depth = DepthMap(values)
        scene = Scene("d", 128, 128, depth=depth)
        encoded = scene_to_dict(scene)["depth"]
        assert all(type(v) is int for row in encoded for v in row)
        assert encoded == values.tolist()

    def test_jsonl_loading(self, tmp_path):
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [scene_to_dict(scene_from_dict(minimal_record()))])
        assert len(list(load_scenes(p))) == 1

    def test_scenes_load_lazily(self, tmp_path, monkeypatch):
        write_depth_pgm(tmp_path / "d.pgm", DepthMap(np.zeros((80, 100), dtype=np.uint16)))
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
        write_depth_pgm(tmp_path / "d.pgm", DepthMap(np.zeros((80, 100))))
        p = tmp_path / "scenes.jsonl"
        write_jsonl(p, [minimal_record(depth="d.pgm")])
        scene = list(load_scenes(p))[0]
        assert scene.depth is not None and scene.depth.height == 80

    def test_wrong_size_pgm_is_dimension_mismatch(self, tmp_path):
        write_depth_pgm(tmp_path / "d.pgm", DepthMap(np.zeros((8, 10))))
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
        rels = [RelationInstance(RelationKind.RIGHT, 1, (0,), context="city")]
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


def test_write_jsonl_is_canonical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(a, [{"z": 1, "a": 2}])
    write_jsonl(b, [{"a": 2, "z": 1}])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == '{"a": 2, "z": 1}\n'
