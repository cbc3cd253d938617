"""Acceptance gate: nine package-level checks, one printed line each.

Each test prints "criterion N (<label>): PASS/FAIL" so the suite doubles as
a checklist. Scales and tolerances are fixed; do not loosen them here.
"""

from __future__ import annotations

import functools
import random
import time

import numpy as np

from spatialbench.evaluation import (
    evaluate_records,
    score_clause,
)
from spatialbench import geometry
from spatialbench.geometry import (
    BoundingBox,
    DepthMap,
    check_between,
    check_depth_overlap,
    check_depth_relation,
    check_directional,
    check_next,
)
from spatialbench.extraction import DetectedObject, Scene
from spatialbench.cli import main
from spatialbench.lexicon import default_contexts, default_objects
from spatialbench.prompts import (
    PromptSpec,
    RelationQuadruple,
    parse_prompt,
    render_prompt,
)
from spatialbench.relations import (
    DEFAULT_STRICTNESS,
    OPPOSITE_PAIRS,
    RelationKind,
    Strictness,
    invert,
    pair_id,
)
from spatialbench.sceneio import write_jsonl
from spatialbench.stub import StubGeneratorConfig, stub_generate
from spatialbench.tore import (
    BiasProfile,
    ToreConfig,
    builtin_profile,
    compute_bias_profile,
    transform_prompt,
    transform_spec,
)

from naive_reference import (
    grid_boxes,
    naive_batch_between,
    naive_batch_depth_overlap,
    naive_batch_directional,
    naive_batch_next,
    naive_check_between,
    naive_check_depth_overlap,
    naive_check_directional,
    naive_check_next,
)
from test_evaluation import pattern_records
from test_prompts import COMPLEX_RENDERS, SIMPLE_RENDERS

TAUS = (2.0, 3.0, 5.0)
FLIPPABLE = tuple(k for k in RelationKind if k.is_directional_2d or k.is_3d)
DIRECTIONS = tuple(k for k in RelationKind if k.is_directional_2d)


def criterion(num: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({label}): FAIL")
                raise
            print(f"criterion {num} ({label}): PASS")
        return run
    return wrap


def random_box_array(rng: np.random.Generator, n: int, span=100.0, max_extent=50.0):
    low = rng.uniform(0.0, span, size=(n, 2))
    extent = rng.uniform(0.1, max_extent, size=(n, 2))
    return np.concatenate([low, low + extent], axis=1)


def box_list(rows) -> list[BoundingBox]:
    return [BoundingBox(*row) for row in rows.tolist()]


# --------------------------------------------------------------------------
# 1. exhaustive + randomized agreement with the naive reference

@criterion(1, "geometry oracle equivalence")
def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()

    # all 1296 integer-corner boxes on the 8x8 grid, every ordered pair; the
    # kernel runs once per pair and gives the four directions and the gate
    boxes = grid_boxes(8)
    rows = [tuple(b) for b in boxes.tolist()]
    a, b = boxes[:, None, :], boxes[None, :, :]
    for tau in TAUS:
        want = np.stack([naive_batch_directional(a, b, loc.value, tau)
                         for loc in geometry._DIRECTIONS]
                        + [naive_batch_depth_overlap(a, b, tau)], axis=-1)
        want_next = naive_batch_next(a, b, tau)
        for i, p in enumerate(rows):
            got = np.array([geometry._verdicts(p, q, tau) for q in rows])
            assert (got == want[i]).all()
            assert ((got[:, 0] | got[:, 1]) == want_next[i]).all()  # Next as check_next reads it

    small = grid_boxes(4)  # between is ternary: exhaust all 1e6 triples on 4x4
    l = small[:, None, None, :]
    m = small[None, :, None, :]
    r = small[None, None, :, :]
    small_boxes = box_list(small)
    for tau in TAUS:
        s = Strictness(tau)
        got = [[[check_between(bl, bm, br, s) for br in small_boxes] for bm in small_boxes]
               for bl in small_boxes]
        assert got == naive_batch_between(l, m, r, tau).tolist()

    rng = np.random.default_rng(42)
    n = 120_000
    pa, pb, pc = (random_box_array(rng, n) for _ in range(3))
    ba, bb, bc = (box_list(arr) for arr in (pa, pb, pc))
    for tau in TAUS:
        s = Strictness(tau)
        for loc in DIRECTIONS:
            assert ([check_directional(x, y, loc, s) for x, y in zip(ba, bb)]
                    == naive_batch_directional(pa, pb, loc.value, tau).tolist())
        assert ([check_next(x, y, s) for x, y in zip(ba, bb)]
                == naive_batch_next(pa, pb, tau).tolist())
        assert ([check_depth_overlap(x, y, s) for x, y in zip(ba, bb)]
                == naive_batch_depth_overlap(pa, pb, tau).tolist())
        assert ([check_between(x, y, z, s) for x, y, z in zip(ba, bb, bc)]
                == naive_batch_between(pa, pb, pc, tau).tolist())

    # scalar entry points agree with the scalar oracle too
    s3 = Strictness(3.0)
    for i in range(0, n, n // 300):
        b1, b2, b3 = ba[i], bb[i], bc[i]
        for loc in DIRECTIONS:
            assert check_directional(b1, b2, loc, s3) == naive_check_directional(
                pa[i], pb[i], loc.value, 3.0
            )
        assert check_next(b1, b2, s3) == naive_check_next(pa[i], pb[i], 3.0)
        assert check_depth_overlap(b1, b2, s3) == naive_check_depth_overlap(
            pa[i], pb[i], 3.0
        )
        assert check_between(b1, b2, b3, s3) == naive_check_between(
            pa[i], pb[i], pc[i], 3.0
        )

    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# 2. argument-swap symmetries

@criterion(2, "predicate symmetry suite")
def test_criterion_2_symmetry():
    rng = np.random.default_rng(7)
    n = 120_000
    a, b = box_list(random_box_array(rng, n)), box_list(random_box_array(rng, n))
    s = DEFAULT_STRICTNESS
    R, L, T, B = RelationKind.RIGHT, RelationKind.LEFT, RelationKind.TOP, RelationKind.BOTTOM
    for x, y in zip(a, b):
        assert check_directional(x, y, R, s) == check_directional(y, x, L, s)
        assert check_directional(x, y, B, s) == check_directional(y, x, T, s)
        assert check_next(x, y, s) == check_next(y, x, s)

    depth = DepthMap(rng.uniform(0.0, 10.0, size=(64, 64)))
    da = random_box_array(rng, 100_000, span=60.0, max_extent=4.0)
    db = random_box_array(rng, 100_000, span=60.0, max_extent=4.0)
    flipped = {None: None, RelationKind.FRONT: RelationKind.BEHIND,
               RelationKind.BEHIND: RelationKind.FRONT}
    violations = 0
    for row_a, row_b in zip(da, db):
        b1, b2 = BoundingBox(*row_a), BoundingBox(*row_b)
        forward = check_depth_relation(b1, b2, depth, s)
        backward = check_depth_relation(b2, b1, depth, s)
        violations += backward is not flipped[forward]
    assert violations == 0


# --------------------------------------------------------------------------
# 3. the worked example at the default strictness

@criterion(3, "tau=3 worked example")
def test_criterion_3_worked_example():
    assert DEFAULT_STRICTNESS.tau == 3.0
    b1 = BoundingBox(60, 10, 100, 50)
    b2 = BoundingBox(0, 0, 40, 40)
    s = DEFAULT_STRICTNESS
    assert check_directional(b1, b2, RelationKind.RIGHT, s) is True
    assert check_directional(b1, b2, RelationKind.BOTTOM, s) is False
    assert check_directional(b1, b2, RelationKind.LEFT, s) is False
    assert check_directional(b1, b2, RelationKind.TOP, s) is False
    assert check_next(b1, b2, s) is True


# --------------------------------------------------------------------------
# 4. grammar round trip at scale plus the published prompt list

def _random_quadruple(rng, objects):
    kind = rng.choice(list(RelationKind))
    subject = rng.choice(objects)
    if kind is RelationKind.BETWEEN:
        targets = (rng.choice(objects), rng.choice(objects))
    else:
        target = rng.choice(objects)
        while target == subject:
            target = rng.choice(objects)
        targets = (target,)
    return RelationQuadruple(subject, kind, targets)


def _random_spec(rng, objects, contexts) -> PromptSpec:
    q1 = _random_quadruple(rng, objects)
    context = rng.choice(contexts)
    if rng.random() < 0.5:
        return PromptSpec((q1,), context)
    anchor = rng.choice(q1.phrases)
    kind = rng.choice(list(RelationKind))
    other = rng.choice(objects)
    while other == anchor:
        other = rng.choice(objects)
    if kind is RelationKind.BETWEEN:
        targets = (anchor, other) if rng.random() < 0.5 else (other, anchor)
        q2 = RelationQuadruple(rng.choice(objects), kind, targets)
    elif rng.random() < 0.5:
        q2 = RelationQuadruple(anchor, kind, (other,))
    else:
        q2 = RelationQuadruple(other, kind, (anchor,))
    return PromptSpec((q1, q2), context)


@criterion(4, "prompt grammar round trip")
def test_criterion_4_prompt_round_trip():
    start = time.perf_counter()
    objects, contexts = default_objects(), default_contexts()
    rng = random.Random(2024)
    for _ in range(10_000):
        spec = _random_spec(rng, objects, contexts)
        assert parse_prompt(render_prompt(spec)) == spec

    published = [text for _, text in SIMPLE_RENDERS + COMPLEX_RENDERS] + [
        "A gate to the right of a garage door, a garage door between "
        "a garage door and a stair in a residential area",
        "A rooftop under a high - rise, a cloud next to the high - rise in a city",
    ]
    for text in published:
        parse_prompt(text)

    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# 5. rewrite semantics: flip preserves satisfaction, transform is idempotent

def _random_labeled_scene(rng: random.Random) -> Scene:
    def int_box():
        x0 = rng.randint(0, 7)
        x1 = rng.randint(x0 + 1, 8)
        y0 = rng.randint(0, 7)
        y1 = rng.randint(y0 + 1, 8)
        return BoundingBox(x0, y0, x1, y1)

    labels = ["a", "b"] + [rng.choice("ab") for _ in range(rng.randint(0, 3))]
    objs = tuple(DetectedObject(lab, int_box()) for lab in labels)
    depth = DepthMap([[rng.randint(0, 63) for _ in range(9)] for _ in range(9)])
    return Scene("img", 9, 9, objs, depth=depth)


def _random_profile(rng: random.Random) -> BiasProfile:
    levels = (0.0, 0.2, 0.4, 0.4, 0.8, 1.0)
    table = {}
    for pair in OPPOSITE_PAIRS:
        if rng.random() < 0.75:
            table[pair_id(pair)] = {kind.value: rng.choice(levels) for kind in pair}
    return BiasProfile(table)


@criterion(5, "rewrite preserves meaning and is idempotent")
def test_criterion_5_rewrite_semantics():
    rng = random.Random(5)
    for _ in range(1000):
        scene = _random_labeled_scene(rng)
        clause = RelationQuadruple("a", rng.choice(FLIPPABLE), ("b",))
        assert (score_clause(clause, scene).satisfied
                == score_clause(invert(clause), scene).satisfied)

    objects, contexts = default_objects(), default_contexts()
    for _ in range(1000):
        cfg = ToreConfig(_random_profile(rng))
        text = render_prompt(_random_spec(rng, objects, contexts))
        once = transform_prompt(text, cfg)
        assert transform_prompt(once, cfg) == once


# --------------------------------------------------------------------------
# 6. accuracy accounting identities

@criterion(6, "benchmark accounting identities")
def test_criterion_6_identities():
    report = evaluate_records(pattern_records())
    assert abs(report.soft[RelationKind.RIGHT.value] - 2 / 3) < 1e-12
    assert abs(report.soft[RelationKind.TOP.value] - 1 / 2) < 1e-12
    assert abs(report.strict - 1 / 3) < 1e-12

    objects, contexts = default_objects(), default_contexts()
    rng = random.Random(6)
    for kind in (RelationKind.RIGHT, RelationKind.BOTTOM):
        prompts = [
            PromptSpec((RelationQuadruple(rng.choice(objects), kind, (rng.choice(objects),)),),
                       rng.choice(contexts))
            for _ in range(400)
        ]
        cfg = StubGeneratorConfig({kind: 0.5}, seed=60)
        simple_records, _ = stub_generate(prompts, cfg)
        report = evaluate_records(simple_records)
        assert report.strict == report.soft[kind.value]


# --------------------------------------------------------------------------
# 7. end-to-end mechanism: measured bias drives a rewrite that lifts accuracy

@criterion(7, "stubbed opposite-side lift")
def test_criterion_7_stub_lift():
    start = time.perf_counter()
    objects, contexts = default_objects(), default_contexts()
    rng = random.Random(77)

    def simple_prompts(kind: RelationKind, count: int) -> list[PromptSpec]:
        out = []
        for _ in range(count):
            subject = rng.choice(objects)
            target = rng.choice(objects)
            while target == subject:
                target = rng.choice(objects)
            out.append(PromptSpec((RelationQuadruple(subject, kind, (target,)),),
                                  rng.choice(contexts)))
        return out

    top_prompts = simple_prompts(RelationKind.TOP, 2000)
    bottom_prompts = simple_prompts(RelationKind.BOTTOM, 2000)
    stub_cfg = StubGeneratorConfig(
        {RelationKind.TOP: 0.8, RelationKind.BOTTOM: 0.4}, seed=123
    )
    records, _ = stub_generate(top_prompts + bottom_prompts, stub_cfg)

    report = evaluate_records(records)
    measured = report.bias["top_bottom"]
    assert abs(measured["top"] - 0.8) < 0.04
    assert abs(measured["bottom"] - 0.4) < 0.04

    before = evaluate_records(records[2000:]).soft[RelationKind.BOTTOM.value]
    assert abs(before - 0.4) < 0.04

    profile = compute_bias_profile(report)
    assert profile.preferred(OPPOSITE_PAIRS[0]) is RelationKind.TOP
    rewrite = ToreConfig(profile)
    transformed = [transform_spec(spec, rewrite)[0] for spec in bottom_prompts]
    assert all(c.kind is RelationKind.TOP
               for spec in transformed for c in spec.clauses)

    lifted_records, _ = stub_generate(transformed, stub_cfg)
    after = evaluate_records(lifted_records).soft[RelationKind.TOP.value]
    assert abs(after - 0.8) < 0.04
    assert after > before + 0.3

    assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# 8. the published bias row produces the published preferences

@criterion(8, "published bias row ingestion")
def test_criterion_8_published_row():
    row = BiasProfile({
        "top_bottom": {"top": 0.41, "bottom": 0.33},
        "left_right": {"left": 0.32, "right": 0.31},
        "front_behind": {"front": 0.31, "behind": 0.28},
    })
    for profile in (row, builtin_profile("flux1")):
        preferred = {profile.preferred(pair) for pair in OPPOSITE_PAIRS}
        assert preferred == {RelationKind.TOP, RelationKind.LEFT, RelationKind.FRONT}


# --------------------------------------------------------------------------
# 9. byte-identical reruns for every subcommand

@criterion(9, "CLI determinism")
def test_criterion_9_cli_determinism(tmp_path):
    prompts = tmp_path / "prompts.txt"
    assert main(["gen-prompts", "--simple", "right=5", "--simple", "bottom=5",
                 "--complex", "top=3", "--seed", "11",
                 "--output", str(prompts)]) == 0
    records = tmp_path / "records.jsonl"
    assert main(["stub-gen", str(prompts), "--p", "bottom=0.5", "--seed", "4",
                 "--output", str(records)]) == 0
    scenes = tmp_path / "scenes.jsonl"
    write_jsonl(scenes, [{
        "image_id": "s1", "width": 100, "height": 100,
        "objects": [
            {"label": "bench", "box": [0, 0, 30, 30], "score": 0.9},
            {"label": "tree", "box": [40, 0, 70, 30], "score": 0.9},
        ],
    }])
    captions = tmp_path / "captions.jsonl"
    write_jsonl(captions, [
        {"caption": "a red bus parked on a street downtown"},
        {"caption": "a bowl of fruit"},
    ])

    # extract, tore and filter-captions read no randomness and take no --seed
    commands = [
        ["extract", str(scenes), "--tau", "3"],
        ["gen-prompts", "--simple", "left=4", "--complex", "front=2", "--seed", "0"],
        ["tore", "--profile", "flux1", str(prompts)],
        ["evaluate", str(records), "--format", "json", "--seed", "0"],
        ["bias-report", str(records), "--format", "json", "--seed", "0"],
        ["filter-captions", str(captions)],
        ["stub-gen", str(prompts), "--p", "top=0.5", "--seed", "0"],
    ]
    for index, argv in enumerate(commands):
        out_a = tmp_path / f"out_{index}_a"
        out_b = tmp_path / f"out_{index}_b"
        assert main([*argv, "--output", str(out_a)]) == 0
        assert main([*argv, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), argv[0]
