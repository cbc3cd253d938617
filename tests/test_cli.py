"""Command line end-to-end behavior: wiring, determinism, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from spatialbench import textutil, tore
from spatialbench.cli import _build_parser, _check_object_phrase, main
from spatialbench.errors import FormatError
from spatialbench.evaluation import evaluate_records
from spatialbench.lexicon import default_contexts, default_objects
from spatialbench.prompts import _normalized_context, parse_prompt, render_prompt
from spatialbench.sceneio import load_eval_records, write_jsonl
from spatialbench.textutil import MAX_NESTING, json_value
from spatialbench.tore import load_bias_profile

SCENE = {
    "image_id": "s1",
    "width": 100,
    "height": 100,
    "objects": [
        {"label": "bench", "box": [0, 0, 30, 30], "score": 0.9},
        {"label": "tree", "box": [40, 0, 70, 30], "score": 0.9},
    ],
}


@pytest.fixture
def scenes_file(tmp_path):
    path = tmp_path / "scenes.jsonl"
    write_jsonl(path, [SCENE])
    return path


@pytest.fixture
def offset_scenes_file(tmp_path):
    # the tree sits 8 px low: aligned up to tau 30/8, so its relations hold at
    # tau 2 and 3 and vanish at tau 4 and 5
    scene = json.loads(json.dumps(SCENE))
    scene["objects"][1]["box"] = [40, 8, 70, 38]
    path = tmp_path / "offset_scenes.jsonl"
    write_jsonl(path, [scene])
    return path


@pytest.fixture
def prompts_file(tmp_path):
    path = tmp_path / "prompts.txt"
    rc = main([
        "gen-prompts", "--simple", "right=4", "--simple", "bottom=3",
        "--complex", "top=2", "--seed", "9", "--output", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture
def records_file(tmp_path, prompts_file):
    path = tmp_path / "records.jsonl"
    rc = main([
        "stub-gen", str(prompts_file), "--p", "bottom=0.5",
        "--seed", "3", "--output", str(path),
    ])
    assert rc == 0
    return path


def extract_bytes(tmp_path, scenes, *flags) -> bytes:
    out = tmp_path / "relations.jsonl"
    assert main(["extract", str(scenes), *flags, "--output", str(out)]) == 0
    return out.read_bytes()


def run_twice(tmp_path, argv_for):
    a, b = tmp_path / "out_a", tmp_path / "out_b"
    assert main(argv_for(a)) == 0
    assert main(argv_for(b)) == 0
    return a.read_bytes(), b.read_bytes()


class TestGenPrompts:
    def test_counts_and_grammar(self, prompts_file):
        lines = prompts_file.read_text().splitlines()
        assert len(lines) == 9
        specs = [parse_prompt(line) for line in lines]
        assert sum(1 for s in specs if s.is_complex) == 2

    def test_deterministic(self, tmp_path):
        out_a, out_b = run_twice(tmp_path, lambda out: [
            "gen-prompts", "--simple", "between=5", "--seed", "4", "--output", str(out),
        ])
        assert out_a == out_b

    def test_invert_appends(self, tmp_path):
        out = tmp_path / "p.txt"
        assert main(["gen-prompts", "--simple", "left=3", "--invert",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert all("right of" in line for line in lines[3:])

    def test_custom_lexicon(self, tmp_path):
        objs = tmp_path / "objects.txt"
        objs.write_text("lamp\nbench\ncar\n")
        ctxs = tmp_path / "contexts.txt"
        ctxs.write_text("park\n")
        out = tmp_path / "p.txt"
        assert main(["gen-prompts", "--simple", "next=2", "--objects", str(objs),
                     "--contexts", str(ctxs), "--output", str(out)]) == 0
        for line in out.read_text().splitlines():
            assert line.endswith("in a park")

    def test_nothing_requested(self):
        assert main(["gen-prompts"]) == 1

    def test_pool_too_small(self, tmp_path):
        objs = tmp_path / "objects.txt"
        objs.write_text("lamp\nbench\n")
        assert main(["gen-prompts", "--simple", "right=100",
                     "--objects", str(objs)]) == 1

    @pytest.mark.parametrize("counts, size", [
        (["--simple", "right=3", "--complex", "top=2"], "1000"),
        (["--simple", "left=300"], "1200"),
    ], ids=["floor", "four-times"])
    def test_default_pool_size_is_the_one_the_help_states(self, tmp_path, counts, size):
        # 4x the largest count, at least 1000: the floor gives small --complex
        # requests partners that share a phrase
        default, given = tmp_path / "default.txt", tmp_path / "given.txt"
        assert main(["gen-prompts", *counts, "--seed", "3", "--output", str(default)]) == 0
        assert main(["gen-prompts", *counts, "--seed", "3", "--pool-size", size,
                     "--output", str(given)]) == 0
        assert default.read_bytes() == given.read_bytes()

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_pool_size_below_one(self, capsys, size):
        assert main(["gen-prompts", "--simple", "right=3", "--pool-size", size]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --pool-size must be at least 1, got {size}"]

    @pytest.mark.parametrize("objects, kinds, message", [
        ("bus\n", ["right=1"], "lists 1 object(s); 2 are needed"),
        ("bus\ncar\n", ["right=1", "between=1"], "lists 2 object(s); 3 are needed for between"),
    ], ids=["one-object", "two-objects-between"])
    def test_too_few_objects_names_the_flag(self, tmp_path, capsys, objects, kinds, message):
        objs = tmp_path / "objects.txt"
        objs.write_text(objects)
        argv = ["gen-prompts", "--objects", str(objs)]
        for kind in kinds:
            argv += ["--simple", kind]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: --objects {objs} {message}"]

    def test_bad_kind_count(self):
        with pytest.raises(SystemExit) as info:
            main(["gen-prompts", "--simple", "sideways=3"])
        assert info.value.code == 2

    # The benchmark's eval_loop prompt set: 40 simple prompts of every kind and
    # 16 complex ones for top, left and front, drawn from 8,000 candidates.
    # The digests were recorded before complex partners came from a phrase
    # index, so they pin the RNG draw order of the pool scan.
    EVAL_LOOP_ARGV = [
        "gen-prompts", "--seed", "7",
        *[arg for kind in ("right", "left", "top", "bottom", "next", "between",
                           "front", "behind") for arg in ("--simple", f"{kind}=40")],
        *[arg for kind in ("top", "left", "front") for arg in ("--complex", f"{kind}=16")],
    ]

    @pytest.mark.parametrize("extra, digest", [
        ([], "f8783dfe73425d6758b9513d27d028bc23732332750fca4146e959c992687990"),
        (["--invert"], "67ed0582b1b2b1bbb6e6344810b11a75d4bd4aa2c4bc3080f67308197501df39"),
    ], ids=["plain", "invert"])
    def test_golden_output_bytes(self, tmp_path, extra, digest):
        out = tmp_path / "prompts.txt"
        assert main([*self.EVAL_LOOP_ARGV, *extra, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # The benchmark's eval_loop stub-gen step on those prompts. 102 of the 368
    # records carry the one shared depth plane inline; the digests were
    # recorded while every record's plane was encoded on its own.
    STUB_PROBABILITIES = ["top=0.8", "bottom=0.5", "left=0.75", "right=0.55",
                          "front=0.7", "behind=0.45", "next=0.9", "between=0.6"]

    def stub_gen(self, tmp_path, *extra):
        prompts, records = tmp_path / "p.txt", tmp_path / "r.jsonl"
        assert main([*self.EVAL_LOOP_ARGV, "--output", str(prompts)]) == 0
        assert main(["stub-gen", str(prompts), "--seed", "7",
                     *[arg for p in self.STUB_PROBABILITIES for arg in ("--p", p)],
                     *extra, "--output", str(records)]) == 0
        return records

    def test_golden_stub_gen_bytes(self, tmp_path):
        plans = tmp_path / "plans.jsonl"
        records = self.stub_gen(tmp_path, "--plans", str(plans))
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (records, plans)} == {
            "r.jsonl": "6a9f4ee4b418616bba4cf3932e0fd1314c4bb84e58a850b1d90d3b28eaac928c",
            "plans.jsonl": "b5fa2bf931c7ce7472430a97a9c7e6a5fd30a0f687bfc47fa6aa9346c8fea083",
        }

    # extract on those records' scenes, each with its prompt's context, plus
    # one scene without a context. Stub boxes cover 0.6% of the image, below
    # the default min_rel_area, so only the config run emits their relations
    # (857 of them). The digests were recorded while every relation carried
    # its own copy of the scene's context.
    @pytest.mark.parametrize("config, digest", [
        (None, "7971fb4863fc70604a48bf85d9bc777dcc9345ab1f0262946f1dca01eef114a8"),
        ('{"min_rel_area": 0.005}',
         "5a5469b0785a44fb2d9ece63196d78834db5b7ca4c7788f85a59f12978f4c0a7"),
    ], ids=["default", "small-boxes"])
    def test_golden_extract_bytes(self, tmp_path, config, digest):
        records = self.stub_gen(tmp_path)
        scenes = tmp_path / "scenes.jsonl"
        with records.open(encoding="utf-8") as fh:
            write_jsonl(scenes, [*(json.loads(line)["scene"] for line in fh), SCENE])
        flags = []
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            flags = ["--config", str(cfg)]
        assert hashlib.sha256(extract_bytes(tmp_path, scenes, *flags)).hexdigest() == digest

    # The chain's later steps on those records: evaluate and bias-report in
    # both formats, the profile bias-report emits, and tore on the prompts
    # with that profile. The digests were recorded while each command wrote
    # its output through its own mechanism.
    def test_golden_report_bytes(self, tmp_path):
        records = self.stub_gen(tmp_path)
        profile = tmp_path / "profile.json"
        runs = {
            "evaluate.json": ["evaluate", str(records), "--seed", "7"],
            "evaluate.txt": ["evaluate", str(records), "--seed", "7", "--format", "text"],
            "bias.json": ["bias-report", str(records), "--seed", "7",
                          "--emit-profile", str(profile)],
            "bias.txt": ["bias-report", str(records), "--seed", "7", "--format", "text"],
            "tore.txt": ["tore", "--profile", str(profile), str(tmp_path / "p.txt")],
        }
        for name, argv in runs.items():
            assert main([*argv, "--output", str(tmp_path / name)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in [*runs, profile.name]} == {
            "evaluate.json": "24258ed588dc01870cd70e4347e08170099d91f6d3b692a2e6257974de703d0e",
            "evaluate.txt": "b88cce8ad544fa2b03cda9a480b4d7a19b2c36c89d715459e4ebc43c3db644c5",
            "bias.json": "463b37f080c74678a25ae6ccb71b4c2dd160066407060c3e1d59e67665e84e41",
            "bias.txt": "5ed2a839c09d9b7f5df4068af0f3bf82b3e33fd2fdf7e53799a69028b9cbd1dc",
            "tore.txt": "20589259d4c5f3aa0be12f59bf59047438c0f8d1626760d423b5780d1b1cff7d",
            "profile.json": "463b37f080c74678a25ae6ccb71b4c2dd160066407060c3e1d59e67665e84e41",
        }

    def test_golden_filter_captions_bytes(self, tmp_path):
        captions = tmp_path / "captions.jsonl"
        captions.write_text(
            '{"caption": "A red bus parked on a street downtown", "image": "a.jpg"}\n'
            '{"caption": "a business meeting", "source": "x"}\n'
            '{"caption": "Caf\\u00e9 umbrella by a bench in the city", "source": "y"}\n'
            '{"caption": "a tree", "image": "b.jpg", "source": "z"}\n'
            '{"caption": "a Fire Hydrant in a residential area", '
            '"image": "c.jpg", "source": "w"}\n',
            encoding="utf-8")
        out = tmp_path / "kept.jsonl"
        assert main(["filter-captions", str(captions), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4538c8700136b5e4f065089b1e3a742289d19f6297cd1adad9a9ec679e07f086")


class TestExtract:
    def test_relations_output(self, scenes_file, capsys):
        assert main(["extract", str(scenes_file)]) == 0
        line = json.loads(capsys.readouterr().out)
        kinds = {(r["kind"], r["subject"]) for r in line["relations"]}
        assert ("left", 0) in kinds and ("right", 1) in kinds

    def test_tau_changes_result(self, tmp_path, scenes_file):
        loose, strict = tmp_path / "a", tmp_path / "b"
        assert main(["extract", str(scenes_file), "--tau", "5",
                     "--output", str(loose)]) == 0
        assert main(["extract", str(scenes_file), "--tau", "2",
                     "--output", str(strict)]) == 0
        n_loose = len(json.loads(loose.read_text())["relations"])
        n_strict = len(json.loads(strict.read_text())["relations"])
        assert n_loose <= n_strict  # smaller tau widens every band

    def test_deterministic(self, tmp_path, scenes_file):
        out_a, out_b = run_twice(tmp_path, lambda out: [
            "extract", str(scenes_file), "--output", str(out),
        ])
        assert out_a == out_b

    def test_bad_line_writes_no_output(self, tmp_path, capsys):
        path = tmp_path / "scenes.jsonl"
        good = json.dumps(SCENE)
        path.write_text(f"{good}\n{good}\n{{oops\n{good}\n")
        out = tmp_path / "relations.jsonl"
        assert main(["extract", str(path), "--output", str(out)]) == 1
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()


class TestTore:
    def test_line_alignment_and_passthrough(self, tmp_path):
        src = tmp_path / "p.txt"
        src.write_text(
            "A bus to the right of a car in a city\n"
            "not a benchmark prompt\n"
            "A tree next to a bench in a city\n"
        )
        out = tmp_path / "out.txt"
        assert main(["tore", "--profile", "flux1", str(src),
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines == [
            "A car to the left of a bus in a city",
            "not a benchmark prompt",
            "A tree next to a bench in a city",
        ]

    def test_profile_from_file(self, tmp_path):
        profile = tmp_path / "prof.json"
        profile.write_text('{"left_right": {"left": 0.9, "right": 0.1}}')
        src = tmp_path / "p.txt"
        src.write_text("A bus to the right of a car in a city\n")
        out = tmp_path / "out.txt"
        assert main(["tore", "--profile", str(profile), str(src),
                     "--output", str(out)]) == 0
        assert out.read_text() == "A car to the left of a bus in a city\n"

    def test_pairs_filter(self, tmp_path):
        src = tmp_path / "p.txt"
        src.write_text("A bus to the right of a car in a city\n")
        out = tmp_path / "out.txt"
        assert main(["tore", "--profile", "flux1", "--pairs", "top_bottom",
                     str(src), "--output", str(out)]) == 0
        assert out.read_text() == "A bus to the right of a car in a city\n"

    def test_unreadable_profile_names_it(self, tmp_path, capsys):
        src = tmp_path / "p.txt"
        src.write_text("A bus to the right of a car in a city\n")
        assert main(["tore", "--profile", str(tmp_path), str(src)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot read bias profile {tmp_path}: ")
        assert "Is a directory" in line

    def test_unknown_profile(self, tmp_path):
        src = tmp_path / "p.txt"
        src.write_text("x\n")
        assert main(["tore", "--profile", "nosuch", str(src)]) == 1

    @pytest.mark.parametrize("accuracy", ["null", '"x"', '"0.9"', "true", "1.5",
                                          pytest.param("[" * 500 + "]" * 500, id="nested-list")])
    def test_profile_accuracy_must_be_a_number_in_unit_range(self, tmp_path, capsys, accuracy):
        profile = tmp_path / "prof.json"
        profile.write_text(f'{{"top_bottom": {{"top": {accuracy}, "bottom": 0.3}}}}')
        src = tmp_path / "p.txt"
        src.write_text("A bus on top of a car in a city\n")
        assert main(["tore", "--profile", str(profile), str(src)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "field top_bottom.top" in err[0]
        assert str(profile) in err[0]
        assert len(err[0]) < 200 + len(str(profile))

    def test_deterministic(self, tmp_path, prompts_file):
        out_a, out_b = run_twice(tmp_path, lambda out: [
            "tore", "--profile", "sdxl", str(prompts_file), "--output", str(out),
        ])
        assert out_a == out_b

    # one of each kind of line, each repeated as a generation prompt file does
    REPEATED_KINDS = [
        b"A bus to the right of a car in a city\n",  # flipped
        b"A hedge to the left of a ticket booth, the ticket booth on top of a lantern "
        b"in a downtown area\n",  # complex, right-side clause flipped
        b"A bus shelter on top of a pothole in a residential area\n",  # nothing to flip
        b"not a benchmark prompt\n",
        b"\n",
        b"   \t \n",
        "A caf\u00e9 kiosk to the right of a bench in a city\n".encode(),
        "d\u00e9j\u00e0 vu, not a prompt\n".encode(),
        b"A tree to the right of a lamp in a park\r\n",  # CRLF-ended
        b"A tree to the right of a lamp in a park\n",  # the same text, LF-ended
        b"A pond under a mirror in a street\n",
        b" A pond under a mirror in a street\n",  # differs only by a leading space
        b"A pond under a mirror in a street \n",  # and by a trailing one
        b"not a benchmark prompt \n",
    ]

    def test_each_distinct_line_rewritten_once(self, tmp_path, monkeypatch):
        data = self.REPEATED_KINDS * 5
        random.Random(3).shuffle(data)
        src = tmp_path / "p.txt"
        src.write_bytes(b"".join(data))
        with open(src, "rb") as fh:
            lines = [line for _, line in textutil.read_lines(fh)]
        cfg = tore.ToreConfig(tore.builtin_profile("flux1"))
        want = "".join(tore.transform_prompt(line, cfg) + "\n" for line in lines)
        calls: dict[str, int] = {}
        transform = tore.transform_prompt

        def counted(text, config):
            calls[text] = calls.get(text, 0) + 1
            return transform(text, config)

        monkeypatch.setattr(tore, "transform_prompt", counted)
        out = tmp_path / "out.txt"
        assert main(["tore", "--profile", "flux1", str(src), "--output", str(out)]) == 0
        assert out.read_bytes() == want.encode()
        assert calls == dict.fromkeys(lines, 1)
        # the CRLF line and its LF twin read alike; the five simple flips came out
        assert len(calls) == len(self.REPEATED_KINDS) - 1
        assert want.count("A car to the left of a bus in a city\n") == 5


class TestEvaluate:
    def test_json_report(self, tmp_path, records_file):
        out = tmp_path / "report.json"
        assert main(["evaluate", str(records_file), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["soft_accuracy"]["right"] == 1.0
        assert report["config"] == {"tau": 3.0, "seed": 0}

    def test_text_report(self, records_file, capsys):
        assert main(["evaluate", str(records_file), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "strict accuracy:" in out and "right" in out

    def test_tau_flag_echoed(self, tmp_path, records_file):
        out = tmp_path / "report.json"
        assert main(["evaluate", str(records_file), "--tau", "2",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["tau"] == 2.0

    # The config file reaches extract alone, since scoring reads tau only.
    # Each case below runs its file through extract, then checks that evaluate
    # refuses the same file as a usage error.

    @staticmethod
    def assert_ignores_config(records_file, cfg):
        with pytest.raises(SystemExit) as info, contextlib.redirect_stderr(io.StringIO()):
            main(["evaluate", str(records_file), "--config", str(cfg)])
        assert info.value.code == 2

    def test_config_file(self, tmp_path, offset_scenes_file, records_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": 5, "min_score": 0.5}')
        configured = extract_bytes(tmp_path, offset_scenes_file, "--config", str(cfg))
        assert configured == extract_bytes(tmp_path, offset_scenes_file, "--tau", "5")
        assert configured != extract_bytes(tmp_path, offset_scenes_file)
        self.assert_ignores_config(records_file, cfg)

    def test_flag_beats_config(self, tmp_path, offset_scenes_file, records_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": 5}')
        flagged = extract_bytes(tmp_path, offset_scenes_file, "--config", str(cfg), "--tau", "2")
        assert flagged == extract_bytes(tmp_path, offset_scenes_file, "--tau", "2")
        assert flagged != extract_bytes(tmp_path, offset_scenes_file, "--tau", "5")
        self.assert_ignores_config(records_file, cfg)

    def test_config_env_var(self, tmp_path, offset_scenes_file, records_file, monkeypatch):
        # extract once also read its config from SPATIALBENCH_CONFIG; a set
        # variable now changes nothing, and --config is the only way in
        default = extract_bytes(tmp_path, offset_scenes_file)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": 4}')
        configured = extract_bytes(tmp_path, offset_scenes_file, "--config", str(cfg))
        assert configured == extract_bytes(tmp_path, offset_scenes_file, "--tau", "4")
        assert configured != default
        monkeypatch.setenv("SPATIALBENCH_CONFIG", str(cfg))
        assert extract_bytes(tmp_path, offset_scenes_file) == default
        self.assert_ignores_config(records_file, cfg)

    def test_unknown_config_key(self, tmp_path, scenes_file, records_file, capsys):
        # a key no setting reads is rejected, never silently ignored
        for key in ("speed", "max_between_objects", "ambiguity_policy",
                    "emit_next_when_directional"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: 11}))
            assert main(["extract", str(scenes_file), "--config", str(cfg)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: config {cfg}: unknown keys: {key}"]
            self.assert_ignores_config(records_file, cfg)

    def test_undecodable_config(self, tmp_path, scenes_file, capsys):
        # bytes that are not UTF-8 name the file, as any other unreadable config does
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{")
        assert main(["extract", str(scenes_file), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: config {cfg}: invalid UTF-8 byte 0xff at byte offset 0 (line 1)"]

    @pytest.mark.parametrize("text, key", [
        ('{"tau": "3"}', "tau"),
        ('{"min_score": true}', "min_score"),
        ('{"max_center_dist": "0.5"}', "max_center_dist"),
        ('{"tau": 0}', "tau"),
        ('{"tau": NaN}', "tau"),
        ('{"min_score": 2}', "min_score"),
        ('{"max_center_dist": 0}', "max_center_dist"),
        pytest.param('{"tau": 1%s}' % ("0" * 400), "tau", id="tau-past-float-range"),
        pytest.param('{"min_score": -1%s}' % ("0" * 400), "min_score",
                     id="min_score-past-float-range"),
        pytest.param('{"tau": %s}' % ("[" * 500 + "]" * 500), "tau", id="tau-nested-list"),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, scenes_file, records_file, capsys,
                                        text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["extract", str(scenes_file), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config {cfg}: ")
        assert err[0].endswith(f"(field {key})")
        assert "0" * 400 not in err[0]
        assert len(err[0]) < 200 + len(str(cfg))
        self.assert_ignores_config(records_file, cfg)

    @pytest.mark.parametrize("text, reason", [
        ('{"tau": 1%s}' % ("0" * 400), "tau must be finite and positive, got inf (field tau)"),
        ('{"min_score": -1%s}' % ("0" * 400),
         "min_score must be in [0, 1], got -inf (field min_score)"),
    ], ids=["tau", "min_score"])
    def test_config_number_past_float_range_reads_inf(self, tmp_path, scenes_file, capsys,
                                                      text, reason):
        # as a scene's score of the same size does
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["extract", str(scenes_file), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config {cfg}: {reason}"]

    def test_deterministic(self, tmp_path, records_file):
        out_a, out_b = run_twice(tmp_path, lambda out: [
            "evaluate", str(records_file), "--output", str(out),
        ])
        assert out_a == out_b


class TestBiasReport:
    @pytest.fixture
    def paired_records(self, tmp_path):
        prompts = tmp_path / "paired_prompts.txt"
        assert main([
            "gen-prompts", "--simple", "top=4", "--simple", "bottom=4",
            "--seed", "2", "--output", str(prompts),
        ]) == 0
        records = tmp_path / "paired_records.jsonl"
        assert main([
            "stub-gen", str(prompts), "--p", "bottom=0.5", "--seed", "8",
            "--output", str(records),
        ]) == 0
        return records

    def test_json_and_profile(self, tmp_path, paired_records):
        out = tmp_path / "bias.json"
        prof = tmp_path / "profile.json"
        assert main(["bias-report", str(paired_records), "--output", str(out),
                     "--emit-profile", str(prof)]) == 0
        bias = json.loads(out.read_text())
        assert bias["top_bottom"]["top"] == 1.0
        profile = load_bias_profile(prof)
        assert profile.table != {}

    def test_emitted_profile_is_the_reports_bias_table(self, tmp_path, paired_records):
        prof = tmp_path / "profile.json"
        assert main(["bias-report", str(paired_records), "--emit-profile", str(prof)]) == 0
        report = evaluate_records(load_eval_records(paired_records), seed=0)
        profile = tore.BiasProfile(report.bias)
        assert tore.compute_bias_profile(report) == load_bias_profile(prof) == profile
        assert prof.read_text(encoding="utf-8") == textutil.json_document(profile.table)

    def test_one_sided_records_fail_profile_emission(self, tmp_path, records_file):
        # these records cover right but never left, so no profile can be derived
        assert main(["bias-report", str(records_file),
                     "--emit-profile", str(tmp_path / "prof.json")]) == 1

    def test_text_format(self, paired_records, capsys):
        assert main(["bias-report", str(paired_records), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[1] for line in out.splitlines()[1:]] == ["top", "bottom"]
        # the same table, rows in OPPOSITE_PAIRS order, as in evaluate's text report
        report = evaluate_records(load_eval_records(paired_records))
        assert out == report.bias_text()
        assert report.to_text().endswith("\n" + out)

    def test_deterministic(self, tmp_path, paired_records):
        out_a, out_b = run_twice(tmp_path, lambda out: [
            "bias-report", str(paired_records), "--output", str(out),
        ])
        assert out_a == out_b


class TestFilterCaptions:
    def write_captions(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        write_jsonl(path, [
            {"caption": "a red bus parked on a street downtown"},
            {"caption": "a bowl of fruit"},
            {"caption": "business trip downtown"},
        ])
        return path

    def test_filtering(self, tmp_path, capsys):
        path = self.write_captions(tmp_path)
        assert main(["filter-captions", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and "red bus" in lines[0]

    def test_custom_lexicon(self, tmp_path, capsys):
        path = self.write_captions(tmp_path)
        objs = tmp_path / "objects.txt"
        objs.write_text("fruit\ncar, van\n")  # only the prompt grammar forbids commas
        ctxs = tmp_path / "contexts.txt"
        ctxs.write_text("bowl\nstreet, corner\n")
        assert main(["filter-captions", str(path), "--objects", str(objs),
                     "--contexts", str(ctxs)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and "fruit" in lines[0]

    def test_deterministic(self, tmp_path):
        path = self.write_captions(tmp_path)
        out_a, out_b = run_twice(tmp_path, lambda out: [
            "filter-captions", str(path), "--output", str(out),
        ])
        assert out_a == out_b

    @pytest.mark.parametrize("bad, reason", [
        (b"{oops", "invalid JSON: Expecting property name enclosed in double quotes"),
        (b"\xff", "invalid UTF-8 byte 0xff at byte offset 0"),
    ], ids=["json", "utf-8"])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, bad, reason):
        path = tmp_path / "caps.jsonl"
        path.write_bytes(b'{"caption": "a red bus on a street"}\n' + bad + b"\n")
        assert main(["filter-captions", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {path}: {reason} (line 2)"]
        assert captured.out == ""


class TestStubGen:
    def test_records_load_back(self, tmp_path, records_file):
        records = list(load_eval_records(records_file))
        assert len(records) == 9
        assert all(r.scene.objects for r in records)

    def test_plans_written(self, tmp_path, prompts_file):
        out = tmp_path / "records.jsonl"
        plans = tmp_path / "plans.jsonl"
        assert main(["stub-gen", str(prompts_file), "--output", str(out),
                     "--plans", str(plans)]) == 0
        plan_rows = [json.loads(line) for line in plans.read_text().splitlines()]
        assert len(plan_rows) == 9
        assert all(all(v is True for v in row["verdicts"]) for row in plan_rows)

    def test_deterministic(self, tmp_path, prompts_file):
        out_a, out_b = run_twice(tmp_path, lambda out: [
            "stub-gen", str(prompts_file), "--p", "top=0.5",
            "--seed", "6", "--output", str(out),
        ])
        assert out_a == out_b

    def test_stdout_bytes_equal_output_bytes(self, tmp_path, capsysbinary):
        # 3D prompts, so records share the stub's depth plane
        src = tmp_path / "p.txt"
        src.write_text("A bus in front of a car in a city\n"
                       "A tree to the left of a bench in a park\n"
                       "A lamp behind a kiosk, the kiosk next to a car in a street\n")
        out = tmp_path / "records.jsonl"
        argv = ["stub-gen", str(src), "--p", "front=0.5", "--seed", "4"]
        assert main([*argv, "--output", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        written = out.read_bytes()
        assert capsysbinary.readouterr().out == written
        assert written.count(b'"depth": [[') == 2

    def test_unparseable_prompt(self, tmp_path):
        src = tmp_path / "p.txt"
        src.write_text("definitely not a prompt\n")
        assert main(["stub-gen", str(src)]) == 1

    @pytest.mark.parametrize("text, reason", [
        ("hello world", "no relation phrase found"),
        ("A car right of bus in a city",
         "expected an article ('a', 'an' or 'the') starting a noun phrase (token 4)"),
    ], ids=["no-relation", "token"])
    def test_unparseable_prompt_names_file_and_line(self, tmp_path, capsys, text, reason):
        # the blank line counts, so the bad prompt is on line 3
        src = tmp_path / "p.txt"
        src.write_text(f"A bus to the right of a car in a city\n\n{text}\n")
        assert main(["stub-gen", str(src)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {src}: prompt does not parse: {reason} (line 3)"]

    @pytest.mark.parametrize("flag, message", [
        (["--width", "0"], "--width must be at least 1, got 0"),
        (["--height", "-5"], "--height must be at least 1, got -5"),
        (["--p", "top=2"], "--p top=2.0: probability must be in [0, 1]"),
        (["--p", "left=nan"], "--p left=nan: probability must be in [0, 1]"),
    ], ids=["width", "height", "p", "p-nan"])
    def test_out_of_range_flag_names_it(self, prompts_file, capsys, flag, message):
        assert main(["stub-gen", str(prompts_file), *flag]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("flag, message", [
        (["--width", "1" + "0" * 400], "--width must be at most 65535, got inf"),
        (["--height", "65536"], "--height must be at most 65535, got 65536"),
        (["--width", "65535", "--height", "257"],
         "--height must be at most 256 for width 65535 (at most 16777216 cells), got 257"),
    ], ids=["width-401-digits", "height", "cells"])
    def test_oversized_scene_refused_before_any_plane(self, prompts_file, capsys, monkeypatch,
                                                      flag, message):
        def no_scenes(*args, **kwargs):
            raise AssertionError("stub_generate ran")

        monkeypatch.setattr("spatialbench.stub.stub_generate", no_scenes)
        assert main(["stub-gen", str(prompts_file), *flag]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_scene_too_small_names_flags_and_prompt(self, tmp_path, capsys):
        prompt = "A lamp on top of a bench, the bench left of a car in a park"
        src = tmp_path / "p.txt"
        src.write_text(prompt + "\n")
        assert main(["stub-gen", str(src), "--width", "97", "--height", "53"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: scene 97x53 (--width/--height) is too small")
        assert "2 clause(s)" in line and "record stub-000000" in line
        assert repr(render_prompt(parse_prompt(prompt))) in line


class TestPromptFiles:
    @pytest.mark.parametrize("argv", [["tore", "--profile", "sdxl"], ["stub-gen"]],
                             ids=["tore", "stub-gen"])
    def test_bad_utf8_names_line(self, tmp_path, capsys, argv):
        src = tmp_path / "p.txt"
        src.write_bytes(b"A bus to the right of a car in a city\n"
                        b"A caf\xe9 next to a bench in a city\n")
        assert main([*argv, str(src)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {src}: invalid UTF-8 byte 0xe9 at byte offset 5 (line 2)"]

    def test_bad_utf8_on_stdin_names_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"ok\n\xe9\n")))
        assert main(["tore", "--profile", "sdxl", "-"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: <stdin>: invalid UTF-8 byte 0xe9 at byte offset 0 (line 2)"]

    @pytest.mark.parametrize("break_", ["\r", "\x0c", "\u2028"], ids=["cr", "ff", "ls"])
    def test_decode_and_parse_errors_count_lines_alike(self, tmp_path, capsys, break_):
        # only "\n" ends a line, so a line holding another break is one blank line
        good = "A bus to the right of a car in a city"
        src = tmp_path / "p.txt"
        src.write_bytes(f"{good}\n{break_}\nnot a prompt\n".encode("utf-8"))
        assert main(["stub-gen", str(src)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {src}: prompt does not parse: no relation phrase found (line 3)"]
        src.write_bytes(f"{good}\n{break_}\nA caf".encode("utf-8") + b"\xe9\n")
        assert main(["stub-gen", str(src)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {src}: invalid UTF-8 byte 0xe9 at byte offset 5 (line 3)"]

    def test_lines_end_only_at_newline(self, tmp_path):
        # none of these lines parses, so tore passes each through unchanged,
        # with every break other than "\n" (and a "\r" before it) inside its line
        lines = ["not a prompt", "foo\u2028bar", "x\ry\x0cz\x85w\x0bv", "", "last"]
        src = tmp_path / "p.txt"
        src.write_bytes("\r\n".join(lines).encode("utf-8"))
        out = tmp_path / "out.txt"
        assert main(["tore", "--profile", "flux1", str(src), "--output", str(out)]) == 0
        assert out.read_bytes().decode("utf-8") == "".join(line + "\n" for line in lines)

    def test_lf_and_crlf_files_read_alike(self, tmp_path):
        lines = ["A bus to the right of a car in a city", "not a prompt", "",
                 "A lamp below a bench in a park"]
        outputs = []
        for ending in ("\n", "\r\n"):
            src = tmp_path / "p.txt"
            src.write_text("".join(line + ending for line in lines), newline="")
            out = tmp_path / "out.txt"
            assert main(["tore", "--profile", "flux1", str(src), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].decode().splitlines()[:2] == [
            "A car to the left of a bus in a city", "not a prompt"]


class TestLexiconFiles:
    BAD_BYTE = "invalid UTF-8 byte 0xff at byte offset 3 (line 2)"

    @pytest.mark.parametrize("command, flag, data, message", [
        ("gen-prompts", "--objects", b"bus\ncar\xff\nlamp\n", BAD_BYTE),
        ("gen-prompts", "--contexts", b"city\npar\xffk\n", BAD_BYTE),
        ("filter-captions", "--objects", b"bus\ncar\xff\nlamp\n", BAD_BYTE),
        ("filter-captions", "--contexts", b"city\npar\xffk\n", BAD_BYTE),
        ("gen-prompts", "--objects", b"bus\ncar, van\nlamp\n",
         "noun phrase 'car, van' contains a comma (line 2)"),
        ("gen-prompts", "--contexts", b"city\nstreet, corner\n",
         "context 'street, corner' contains a comma (line 2)"),
        ("gen-prompts", "--objects", b"bus\ncar\n\nbus\n",
         "duplicate object phrase 'bus' (line 4)"),
    ], ids=["gen-prompts-objects-utf8", "gen-prompts-contexts-utf8",
            "filter-captions-objects-utf8", "filter-captions-contexts-utf8",
            "gen-prompts-objects-comma", "gen-prompts-contexts-comma",
            "gen-prompts-objects-duplicate"])
    def test_error_names_flag_and_file(self, tmp_path, capsys, command, flag, data, message):
        lexicon = tmp_path / "list.txt"
        lexicon.write_bytes(data)
        captions = tmp_path / "caps.jsonl"
        captions.write_text('{"caption": "a bus in a city"}\n')
        argv = {"gen-prompts": ["gen-prompts", "--simple", "right=1"],
                "filter-captions": ["filter-captions", str(captions)]}[command]
        assert main([*argv, flag, str(lexicon)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {flag} {lexicon}: {message}"]

    def test_shipped_lists_keep_the_prompt_grammar(self):
        # gen-prompts checks the grammar of a given list file only
        for phrase in default_objects():
            _check_object_phrase(phrase)
        for context in default_contexts():
            assert _normalized_context(context) == context


class TestExitCodes:
    def test_missing_file_is_validation_error(self, tmp_path):
        assert main(["extract", str(tmp_path / "missing.jsonl")]) == 1

    @pytest.mark.parametrize("argv, named", [
        (["gen-prompts", "--simple", "right=2", "--simple", "right=0"], "--simple right"),
        (["gen-prompts", "--simple", "top=1", "--complex", "left=1", "--complex", "left=1"],
         "--complex left"),
        (["stub-gen", "p.txt", "--p", "front=0.5", "--p", "behind=1", "--p", "front=1"],
         "--p front"),
    ], ids=["simple", "complex", "p"])
    def test_kind_given_twice_is_an_error(self, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.txt").write_text("A bus in front of a car in a city\n")
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {named} given twice"]
        assert captured.out == ""

    def test_bare_value_error_propagates(self, scenes_file, monkeypatch):
        # every input error is a SpatialBenchError or an OSError; any other
        # ValueError is a bug, and reads as a traceback, not as a user error
        def broken(*args, **kwargs):
            raise ValueError("not an input error")

        monkeypatch.setattr("spatialbench.extraction.extract_scene", broken)
        with pytest.raises(ValueError, match="not an input error"):
            main(["extract", str(scenes_file)])

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["tore", str(tmp_path / "p.txt")])
        assert info.value.code == 2

    def test_bad_format_value(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["evaluate", "x.jsonl", "--format", "yaml"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["extract", "evaluate", "bias-report", "stub-gen"])
    @pytest.mark.parametrize("tau", ["nan", "inf", "0", "-1"])
    def test_bad_tau_names_the_flag(self, tmp_path, capsys, command, tau):
        src = tmp_path / "in.txt"
        src.write_text("")
        assert main([command, str(src), "--tau", tau]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --tau must be"), err

    # each command's argv is valid but for one flag the command no longer takes
    @pytest.mark.parametrize("argv", [
        ["gen-prompts", "--simple", "top=2", "--tau", "nan"],
        ["tore", "--profile", "sdxl", "p.txt", "--config", "x"],
        ["extract", "scenes.jsonl", "--format", "text"],
        ["stub-gen", "p.txt", "--config", "x"],
        ["evaluate", "r.jsonl", "--config", "x"],
        ["bias-report", "r.jsonl", "--config", "x"],
        ["extract", "scenes.jsonl", "--seed", "1"],
        ["tore", "--profile", "sdxl", "p.txt", "--seed", "1"],
        ["filter-captions", "c.jsonl", "--seed", "1"],
    ], ids=["gen-prompts-tau", "tore-config", "extract-format", "stub-gen-config",
            "evaluate-config", "bias-report-config", "extract-seed", "tore-seed",
            "filter-captions-seed"])
    def test_removed_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["tore", "--profile", "sdxl", "--pairs", "bogus", "p.txt"],
         "--pairs 'bogus': unknown pair ids bogus; "
         "valid ids: top_bottom, left_right, front_behind"),
        (["tore", "--profile", "sdxl", "--pairs", ",", "p.txt"],
         "--pairs ',': no pair ids given; valid ids: top_bottom, left_right, front_behind"),
        (["gen-prompts", "--simple", "right=-1"], "--simple right=-1: count must not be negative"),
    ], ids=["pairs-unknown", "pairs-empty", "simple-negative"])
    def test_bad_flag_value_names_the_flag(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command, field", [("extract", "depth"), ("evaluate", "scene.depth")])
    def test_depth_size_mismatch_names_line_and_field(self, tmp_path, capsys, command, field):
        # a depth file of the wrong size is named too
        (tmp_path / "d.json").write_text("[[1, 2], [3, 4]]")
        for depth, named in (([[1, 2], [3, 4]], ""), ("d.json", "depth file d.json: ")):
            scene = {"image_id": "s", "width": 4, "height": 3, "depth": depth}
            if command == "evaluate":
                scene = {"id": "r", "prompt": "A bus in front of a car in a city", "scene": scene}
            src = tmp_path / "in.jsonl"
            src.write_text("\n" + json.dumps(scene) + "\n")
            assert main([command, str(src)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: {src}: {named}depth map is 2x2, scene is 4.0x3.0 (line 2, field {field})"]

    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    def test_depth_sums_past_float_range_still_score(self, tmp_path, capsys, command):
        # each box sums past the float maximum; its mean does not
        plane = [[1e308] + [1.7e308] * 7 for _ in range(8)]
        scene = {"image_id": "s", "width": 8, "height": 8, "depth": plane, "objects": [
            {"label": "bus", "box": [1, 1, 5, 5]}, {"label": "car", "box": [0, 1, 4, 5]}]}
        if command == "evaluate":
            scene = {"id": "r", "prompt": "A bus in front of a car in a city", "scene": scene}
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(scene) + "\n")
        assert main([command, str(src)]) == 0
        out = json.loads(capsys.readouterr().out)
        if command == "evaluate":
            assert out["soft_accuracy"] == {"front": 1.0}
        else:
            assert {(r["kind"], r["subject"]) for r in out["relations"]} >= {("front", 0)}

    # 1 followed by 400 zeros overflows a float; every such number is one error line
    @pytest.mark.parametrize("command, prefix", [("extract", ""), ("evaluate", "scene.")])
    @pytest.mark.parametrize("scene_fields, object_fields, field, message", [
        ({"width": 10 ** 400}, {}, "width", "width must be positive and finite"),
        ({"height": 10 ** 400}, {}, "height", "height must be positive and finite"),
        ({}, {"box": [0, 0, 10 ** 400, 5]}, "objects[0]", "box coordinates must be finite"),
        ({}, {"box": [-10 ** 400, 0, 5, 5]}, "objects[0]", "box coordinates must be finite"),
        ({}, {"score": 10 ** 400}, "objects[0]", "score must be in [0, 1], got inf"),
    ], ids=["width", "height", "box-max", "box-min", "score"])
    def test_integer_past_float_range_names_line_and_field(
            self, tmp_path, capsys, command, prefix, scene_fields, object_fields, field, message):
        obj = {"label": "bus", "box": [0, 0, 5, 5], "score": 0.5, **object_fields}
        scene = {"image_id": "s", "width": 10, "height": 10, "objects": [obj], **scene_fields}
        if command == "evaluate":
            scene = {"id": "r", "prompt": "A bus in front of a car in a city", "scene": scene}
        src = tmp_path / "in.jsonl"
        src.write_text("\n" + json.dumps(scene) + "\n")
        assert main([command, str(src)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {src}: {message} (line 2, field {prefix}{field})"]

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no integer digit limit")
    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    def test_integer_past_digit_limit_names_file_and_line(self, tmp_path, capsys, command):
        src = tmp_path / "in.jsonl"
        src.write_text('\n{"width": 1%s}\n' % ("0" * sys.get_int_max_str_digits()))
        assert main([command, str(src)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {src}: invalid JSON: ") and line.endswith(" (line 2)")

    @pytest.mark.parametrize("command", ["extract", "evaluate", "bias-report"])
    def test_bad_json_names_file_and_line(self, tmp_path, capsys, command):
        src = tmp_path / "in.jsonl"
        src.write_text("\n{oops\n")
        assert main([command, str(src)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {src}: invalid JSON: ") and line.endswith(" (line 2)")

    @pytest.mark.parametrize("command", ["evaluate", "bias-report"])
    def test_empty_record_file_names_it(self, tmp_path, capsys, command):
        src = tmp_path / "empty.jsonl"
        src.write_text("\n")
        assert main([command, str(src)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {src}: no records"]

    @pytest.mark.parametrize("prompt, reason", [
        ("A bus in front of a car in a street, at night",
         "context 'street , at night' contains a comma"),
        ("A bus in front of a car in a street in a",
         "context 'street in a' contains an 'in a' marker"),
    ], ids=["comma", "trailing-in-a"])
    def test_bad_context_is_a_parse_error(self, tmp_path, capsys, prompt, reason):
        prompts = tmp_path / "p.txt"
        prompts.write_text(f"A bus in front of a car in a city\n{prompt}\n")
        assert main(["stub-gen", str(prompts)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {prompts}: prompt does not parse: {reason} (token 10) (line 2)"]
        scene = {"image_id": "s", "width": 4, "height": 3}
        records = tmp_path / "r.jsonl"
        records.write_text(json.dumps({"id": "r", "prompt": prompt, "scene": scene}) + "\n")
        assert main(["evaluate", str(records)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {records}: prompt does not parse: {reason} (token 10) (line 1, field prompt)"]

    def test_stub_gen_tau_below_one_names_the_flag(self, prompts_file, capsys):
        assert main(["stub-gen", str(prompts_file), "--tau", "0.5"]) == 1
        assert capsys.readouterr().err == "error: --tau must be finite and >= 1, got 0.5\n"


# JSON nested past the recursion limit
DEEP = "[" * 5000 + "]" * 5000


def _frames_deeper(frames: int, call):
    """call() made from `frames` more Python frames down the stack."""
    return call() if frames == 0 else _frames_deeper(frames - 1, call)


class TestDecodeFaults:
    @pytest.mark.parametrize("command, line", [
        ("extract", '{"image_id": "s", "width": 2, "height": 1, "objects": %s}'),
        # the inline plane sends the line down the shared-plane path first
        ("evaluate", '{"id": "r", "prompt": "A bus in front of a car in a city", "scene": '
                     '{"image_id": "s", "width": 2, "height": 1, "depth": [[1, 2]], '
                     '"objects": %s}}'),
        ("filter-captions", '{"caption": %s}'),
    ], ids=["extract", "evaluate", "filter-captions"])
    def test_deep_jsonl_line_names_file_and_line(self, tmp_path, capsys, command, line):
        src = tmp_path / "in.jsonl"
        src.write_text("\n" + line % DEEP + "\n")
        assert main([command, str(src)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {src}: invalid JSON: nested too deeply (line 2)"]

    def test_deep_config_names_it(self, tmp_path, capsys, scenes_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": %s}' % DEEP)
        assert main(["extract", str(scenes_file), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config {cfg}: invalid JSON: nested too deeply"]

    def test_deep_profile_names_it(self, tmp_path, capsys, prompts_file):
        profile = tmp_path / "prof.json"
        profile.write_text('{"top_bottom": %s}' % DEEP)
        assert main(["tore", "--profile", str(profile), str(prompts_file)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: bias profile {profile}: invalid JSON: nested too deeply"]

    @pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 980])
    def test_nesting_bound_does_not_depend_on_the_stack(self, depth):
        text = "[" * depth + "]" * depth

        def outcome():
            try:
                return json_value(text)
            except FormatError as exc:
                return str(exc)

        shallow = outcome()
        assert _frames_deeper(500, outcome) == shallow
        assert (shallow == "invalid JSON: nested too deeply") == (depth > MAX_NESTING)

    def test_deep_config_reads_alike_from_a_deep_caller(self, tmp_path, capsys, scenes_file):
        cfg = tmp_path / "cfg.json"
        argv = ["extract", str(scenes_file), "--config", str(cfg)]
        for depth, last in ((MAX_NESTING - 1, "(field tau)"), (980, "nested too deeply")):
            cfg.write_text('{"tau": %s}' % ("[" * depth + "]" * depth))
            assert main(argv) == 1
            shallow = capsys.readouterr().err
            assert _frames_deeper(500, lambda: main(argv)) == 1
            assert capsys.readouterr().err == shallow
            assert shallow.endswith(last + "\n")

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no integer digit limit")
    def test_depth_file_past_digit_limit_names_it(self, tmp_path, capsys):
        (tmp_path / "d.json").write_text("[[1%s, 2]]" % ("0" * sys.get_int_max_str_digits()))
        src = tmp_path / "scenes.jsonl"
        src.write_text('{"image_id": "s", "width": 2, "height": 1, "depth": "d.json"}\n')
        assert main(["extract", str(src)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {src}: depth file d.json: invalid JSON: Exceeds the limit")
        assert line.endswith("to increase the limit (line 1, field depth)")


# Every option of every subcommand; a flag added to or dropped from any
# command shows up here as a diff.
OPTIONS = {
    "extract": {"--output", "--tau", "--config"},
    "gen-prompts": {"--seed", "--output", "--simple", "--complex", "--objects",
                    "--contexts", "--pool-size", "--invert"},
    "tore": {"--output", "--profile", "--pairs"},
    "evaluate": {"--seed", "--output", "--tau", "--format"},
    "bias-report": {"--seed", "--output", "--tau", "--format", "--emit-profile"},
    "filter-captions": {"--output", "--objects", "--contexts"},
    "stub-gen": {"--seed", "--output", "--tau", "--p", "--width", "--height", "--plans"},
}


def test_option_strings_per_command():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert found == OPTIONS


class TestOutputEncoding:
    """Output is UTF-8 with "\\n" line ends whatever stdout's encoding."""

    @staticmethod
    def run(tmp_path, argv, encoding):
        env = dict(os.environ, PYTHONIOENCODING=encoding)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "spatialbench.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=120)

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    @pytest.mark.parametrize("argv", [
        ["gen-prompts", "--objects", "objects.txt", "--simple", "right=6", "--seed", "2"],
        ["tore", "--profile", "sdxl", "prompts.txt"],
    ], ids=["gen-prompts", "tore"])
    def test_stdout_bytes_equal_output_bytes(self, tmp_path, argv, encoding):
        (tmp_path / "objects.txt").write_text("café kiosk\nbench\nbus\n", encoding="utf-8")
        (tmp_path / "prompts.txt").write_text(
            "A café kiosk below a bench in a city\n"
            "A bus on top of a café kiosk in a city\n"
            "déjà vu, not a prompt\n", encoding="utf-8")
        printed = self.run(tmp_path, argv, encoding)
        assert printed.returncode == 0, printed.stderr
        written = self.run(tmp_path, [*argv, "--output", "out.txt"], encoding)
        assert written.returncode == 0, written.stderr
        assert printed.stdout == (tmp_path / "out.txt").read_bytes()
        assert "café kiosk".encode() in printed.stdout


def test_chain_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """The prompt-to-relations chain writes the same bytes under two string hash seeds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    chain = [
        ["gen-prompts", "--simple", "right=3", "--simple", "top=2", "--simple", "front=2",
         "--simple", "between=1", "--complex", "behind=2", "--invert", "--seed", "5",
         "--output", "prompts.txt"],
        ["stub-gen", "prompts.txt", "--p", "front=0.5", "--p", "top=0.5", "--seed", "5",
         "--output", "records.jsonl", "--plans", "plans.jsonl"],
        ["evaluate", "records.jsonl", "--seed", "5", "--output", "report.json"],
        ["bias-report", "records.jsonl", "--seed", "5", "--emit-profile", "profile.json",
         "--output", "bias.json"],
        ["tore", "--profile", "profile.json", "tore_in.txt", "--output", "tore_out.txt"],
        ["extract", "scenes.jsonl", "--config", "config.json", "--output", "relations.jsonl"],
    ]
    digests = []
    for seed in ("0", "1"):
        work = tmp_path / seed
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        for argv in chain:
            if argv[0] == "tore":  # each prompt three times, as for three images each
                (work / "tore_in.txt").write_bytes((work / "prompts.txt").read_bytes() * 3)
            if argv[0] == "extract":  # the stub scenes, with a floor their small boxes pass
                (work / "scenes.jsonl").write_text("".join(
                    json.dumps(json.loads(line)["scene"]) + "\n"
                    for line in (work / "records.jsonl").read_text().splitlines()))
                (work / "config.json").write_text('{"min_rel_area": 0.001}')
            done = subprocess.run([sys.executable, "-m", "spatialbench.cli", *argv], cwd=work,
                                  env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
        outputs = [argv[argv.index(flag) + 1] for argv in chain
                   for flag in ("--output", "--plans", "--emit-profile") if flag in argv]
        digests.append({name: hashlib.sha256((work / name).read_bytes()).hexdigest()
                        for name in outputs})
    assert digests[0] == digests[1] and len(digests[0]) == 8
    # tore flipped lines and extract found Between facts, so both steps did work
    first = tmp_path / "0"
    assert (first / "tore_out.txt").read_bytes() != (first / "tore_in.txt").read_bytes()
    assert b'"kind": "between"' in (first / "relations.jsonl").read_bytes()
