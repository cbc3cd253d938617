"""Seeded workload inputs and the command chain each workload runs.

Every input is made here with the standard library and numpy, PGM depth
files included, so a change to the package's own readers or writers cannot
change what the benchmark feeds it. The same seed always gives the same
bytes.

Each workload runs the same six-command chain, the package's full loop:

    gen-prompts -> stub-gen --plans -> evaluate -> bias-report --emit-profile
    -> tore -> extract

What differs is how much work each command gets. ``eval_loop`` puts the
weight on the prompt loop and gives ``extract`` a small companion scene set;
the two ``extract_*`` workloads do the reverse. Every command therefore runs
on every workload, which keeps every end-to-end and per-layer metric live
everywhere, while each workload's items (prompts or scenes) pass through the
commands that dominate it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class PromptMix:
    """Arguments of the gen-prompts / stub-gen / tore part of the chain."""

    simple_per_kind: int
    complex_per_kind: int
    tore_repeats: int


@dataclass(frozen=True)
class SceneMix:
    """Shape of the scene set handed to ``extract``."""

    detection_counts: tuple[int, ...]  # one scene per entry, in file order
    width: int
    height: int
    depth_every: int  # every depth_every-th scene references its own PGM
    bands: int  # horizontal rows the boxes line up on
    ineligible_share: float  # detections failing the score or area gate


@dataclass(frozen=True)
class Workload:
    name: str
    items: str  # "prompts" or "scenes": what items_per_s counts
    prompts: PromptMix
    scenes: SceneMix
    naive_sample: int  # leading scenes whose relations are checked against naive_extract


SIMPLE_KINDS = ("right", "left", "top", "bottom", "next", "between", "front", "behind")
COMPLEX_KINDS = ("top", "left", "front")
# unequal satisfaction probabilities per opposite side, so the bias profile
# prefers one side of each pair and tore has clauses to flip
STUB_PROBABILITIES = (
    ("top", 0.8), ("bottom", 0.5),
    ("left", 0.75), ("right", 0.55),
    ("front", 0.7), ("behind", 0.45),
    ("next", 0.9), ("between", 0.6),
)
UNPARSEABLE_SHARE = 0.02


def _sparse_counts(n_scenes: int) -> tuple[int, ...]:
    # 3..12 detections, cycled so every seed gets the same size histogram
    return tuple(3 + i % 10 for i in range(n_scenes))


# A small prompt loop rides along on the extract workloads (and a small
# scene set on eval_loop) so that every command runs on every workload.
_COMPANION_PROMPTS = PromptMix(simple_per_kind=12, complex_per_kind=4, tore_repeats=4)

WORKLOADS = {
    "eval_loop": Workload(
        name="eval_loop",
        items="prompts",
        prompts=PromptMix(simple_per_kind=40, complex_per_kind=16, tore_repeats=16),
        scenes=SceneMix(_sparse_counts(40), 320, 240, depth_every=2, bands=2,
                        ineligible_share=0.15),
        naive_sample=40,
    ),
    "extract_dense": Workload(
        name="extract_dense",
        items="scenes",
        prompts=_COMPANION_PROMPTS,
        scenes=SceneMix((40, 60, 85), 640, 480, depth_every=2, bands=4,
                        ineligible_share=0.15),
        naive_sample=2,  # the naive O(n^3) sweep is slow; the two smallest scenes
    ),
    "extract_sparse": Workload(
        name="extract_sparse",
        items="scenes",
        prompts=_COMPANION_PROMPTS,
        scenes=SceneMix(_sparse_counts(400), 320, 240, depth_every=1, bands=2,
                        ineligible_share=0.15),
        naive_sample=40,
    ),
}


def scaled(workload: Workload, scale: float) -> Workload:
    """A smaller copy of a workload, for the benchmark's own quick tests."""
    if scale >= 1.0:
        return workload
    p, s = workload.prompts, workload.scenes

    def shrink(n: int) -> int:
        return max(1, round(n * scale))

    counts = s.detection_counts
    if len(counts) > 4:
        counts = counts[: max(4, shrink(len(counts)))]
    else:
        counts = tuple(max(3, shrink(c)) for c in counts)
    return Workload(
        workload.name,
        workload.items,
        PromptMix(shrink(p.simple_per_kind), shrink(p.complex_per_kind), shrink(p.tore_repeats)),
        SceneMix(counts, s.width, s.height, s.depth_every, s.bands, s.ineligible_share),
        workload.naive_sample,
    )


# ---------------------------------------------------------------------------
# files of one chain


class ChainFiles:
    """Paths of every input and output of one workload's chain."""

    def __init__(self, root: Path):
        self.root = root
        self.prompts = root / "prompts.txt"
        self.records = root / "records.jsonl"
        self.plans = root / "plans.jsonl"
        self.report = root / "report.json"
        self.bias = root / "bias.json"
        self.profile = root / "profile.json"
        self.tore_in = root / "tore_in.txt"
        self.tore_out = root / "tore_out.txt"
        self.tore_again = root / "tore_again.txt"
        self.scenes = root / "scenes.jsonl"
        self.relations = root / "relations.jsonl"


# Command name, the output files it writes, and its argv.
def chain_commands(workload: Workload, files: ChainFiles, seed: int) -> list[tuple[str, tuple[Path, ...], list[str]]]:
    p = workload.prompts
    gen = ["gen-prompts", "--seed", str(seed)]
    for kind in SIMPLE_KINDS:
        gen += ["--simple", f"{kind}={p.simple_per_kind}"]
    for kind in COMPLEX_KINDS:
        gen += ["--complex", f"{kind}={p.complex_per_kind}"]
    gen += ["--output", str(files.prompts)]
    stub = ["stub-gen", str(files.prompts), "--seed", str(seed)]
    for kind, prob in STUB_PROBABILITIES:
        stub += ["--p", f"{kind}={prob}"]
    stub += ["--plans", str(files.plans), "--output", str(files.records)]
    return [
        ("gen_prompts", (files.prompts,), gen),
        ("stub_gen", (files.records, files.plans), stub),
        ("evaluate", (files.report,),
         ["evaluate", str(files.records), "--seed", str(seed), "--output", str(files.report)]),
        ("bias_report", (files.bias, files.profile),
         ["bias-report", str(files.records), "--seed", str(seed),
          "--emit-profile", str(files.profile), "--output", str(files.bias)]),
        ("tore", (files.tore_out,),
         ["tore", "--profile", str(files.profile), str(files.tore_in),
          "--output", str(files.tore_out)]),
        ("extract", (files.relations,),
         ["extract", str(files.scenes), "--output", str(files.relations)]),
    ]


# Commands whose seconds make up the chain that the workload's items pass through.
ITEM_COMMANDS = {
    "prompts": ("gen_prompts", "stub_gen", "evaluate", "bias_report", "tore"),
    "scenes": ("extract",),
}


# ---------------------------------------------------------------------------
# tore input: the prompt set repeated, with a fixed share of unparseable lines

_FREE_TEXT = (
    ("quiet", "busy", "rainy", "sunlit", "crowded", "empty"),
    ("harbour", "plaza", "avenue", "market square", "rooftop", "alley"),
    ("dusk", "noon", "night", "dawn"),
)
_NOUNS = ("car", "tree", "bench", "lamp", "kiosk", "fountain", "bicycle", "sign")


def unparseable_line(rng: random.Random) -> str:
    """A line outside the prompt grammar: no relation, no context, or blank."""
    form = rng.randrange(4)
    if form == 0:
        adj, place, time = (rng.choice(words) for words in _FREE_TEXT)
        return f"A {adj} view of the {place} at {time}"
    if form == 1:
        a, b = rng.sample(_NOUNS, 2)
        return f"A {a} next to a {b}"
    if form == 2:
        a, b, c = rng.sample(_NOUNS, 3)
        return f"A {a} beside a {b}, the {b} beside a {c}, the {c} beside a {a} in a street"
    return " " * rng.randrange(3)


def write_tore_input(prompts_path: Path, dest: Path, repeats: int, seed: int) -> list[int]:
    """Repeat the prompt lines and splice in unparseable ones.

    Returns the 0-based line numbers of the unparseable lines.
    """
    rng = random.Random(f"tore-{seed}")
    prompts = prompts_path.read_text(encoding="utf-8").splitlines()
    lines = prompts * repeats
    n_bad = max(1, round(len(lines) * UNPARSEABLE_SHARE / (1 - UNPARSEABLE_SHARE)))
    for _ in range(n_bad):
        lines.insert(rng.randrange(len(lines) + 1), None)
    bad_at = [i for i, line in enumerate(lines) if line is None]
    lines = [unparseable_line(rng) if line is None else line for line in lines]
    dest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return bad_at


# ---------------------------------------------------------------------------
# scenes and PGM depth files

_LABELS = (
    "car", "bus", "tree", "bench", "streetlight", "traffic light", "person",
    "bicycle", "trash can", "street sign", "kiosk", "fountain", "umbrella",
    "window", "door", "planter", "bollard", "parking meter", "dog", "stroller",
)


def write_pgm16(path: Path, values: np.ndarray) -> None:
    """Write a 2D uint16 array as a 16-bit big-endian binary PGM (P5)."""
    height, width = values.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    path.write_bytes(header + values.astype(">u2").tobytes())


def read_pgm16(path: Path) -> np.ndarray:
    """Read back a file written by write_pgm16."""
    data = path.read_bytes()
    magic, dims, maxval, raster = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"65535":
        raise ValueError(f"{path} is not a 16-bit P5 file from write_pgm16")
    width, height = (int(v) for v in dims.split())
    return np.frombuffer(raster, dtype=">u2").reshape(height, width)


def _depth_field(rng: np.random.Generator, width: int, height: int) -> np.ndarray:
    # closeness grows toward the bottom of the image (nearer the camera),
    # with a random tilt and coarse blobs so box means rarely tie
    yy, xx = np.mgrid[0:height, 0:width]
    tilt = rng.uniform(-20.0, 20.0)
    field = 8000.0 + 90.0 * yy + tilt * xx
    coarse = rng.uniform(0.0, 6000.0, size=(height // 16 + 1, width // 16 + 1))
    field += np.kron(coarse, np.ones((16, 16)))[:height, :width]
    field += rng.integers(0, 64, size=(height, width))
    return np.clip(np.rint(field), 0, 65535).astype(np.uint16)


def _box(rng: random.Random, mix: SceneMix, band_y: float, x_frac: float,
         eligible: bool) -> list[float]:
    w_img, h_img = mix.width, mix.height
    if eligible:
        # at least 1.3% of the image, so the default 1% area gate passes
        w = rng.uniform(0.10, 0.20) * w_img
        h = rng.uniform(0.13, 0.26) * h_img
    else:
        w = rng.uniform(0.03, 0.07) * w_img
        h = rng.uniform(0.03, 0.07) * h_img
    y0 = min(max(0.0, band_y - h / 2 + rng.uniform(-0.04, 0.04) * h), h_img - h)
    x0 = x_frac * (w_img - w)
    return [round(x0, 1), round(y0, 1), round(x0 + w, 1), round(y0 + h, 1)]


def make_scene_set(mix: SceneMix, seed: int, scenes_path: Path) -> list[dict]:
    """Write the scene JSONL plus PGM sidecars; returns the scene dicts.

    A scene with n detections has round(n * ineligible_share) that fail a
    default gate (half by score, half by area); the rest pass both.
    """
    rng = random.Random(f"scenes-{seed}")
    nprng = np.random.default_rng(rng.randrange(2**32))
    depth_dir = scenes_path.parent / "depth"
    depth_dir.mkdir(exist_ok=True)
    scenes = []
    for index, n in enumerate(mix.detection_counts):
        # Evenly spaced rows filled in turn, each split into one x slot per
        # box in random order: every seed asks for about the same amount of
        # work, and only the positions inside the slots differ.
        bands = [(b + 1) / (mix.bands + 1) * mix.height for b in range(mix.bands)]
        slots = []
        for b in range(mix.bands):
            order = list(range(len(range(b, n, mix.bands))))
            rng.shuffle(order)
            slots.append(order)
        n_bad = round(n * mix.ineligible_share)
        objects = []
        for k in range(n):
            band = k % mix.bands
            band_y = bands[band]
            x_frac = (slots[band][k // mix.bands] + rng.random()) / len(slots[band])
            if k < n - n_bad:
                box, score = _box(rng, mix, band_y, x_frac, True), rng.uniform(0.35, 0.99)
            elif k % 2:
                box, score = _box(rng, mix, band_y, x_frac, True), rng.uniform(0.02, 0.25)
            else:
                box, score = _box(rng, mix, band_y, x_frac, False), rng.uniform(0.35, 0.99)
            objects.append({"label": rng.choice(_LABELS), "box": box, "score": round(score, 3)})
        rng.shuffle(objects)
        scene = {
            "image_id": f"{mix.width}x{mix.height}-{index:05d}",
            "width": mix.width,
            "height": mix.height,
            "objects": objects,
            "context": "street",
        }
        if index % mix.depth_every == 0:
            name = f"depth/{index:05d}.pgm"
            write_pgm16(scenes_path.parent / name, _depth_field(nprng, mix.width, mix.height))
            scene["depth"] = name
        scenes.append(scene)
    scenes_path.write_text(
        "".join(json.dumps(s, sort_keys=True) + "\n" for s in scenes), encoding="utf-8"
    )
    return scenes


def eligible_count(scene: dict, min_score: float = 0.3, min_rel_area: float = 0.01) -> int:
    """Detections passing the extractor's default score and area gates."""
    min_area = min_rel_area * scene["width"] * scene["height"]
    return sum(
        1
        for obj in scene["objects"]
        if obj["score"] >= min_score
        and (obj["box"][2] - obj["box"][0]) * (obj["box"][3] - obj["box"][1]) >= min_area
    )


def eligible_histogram(scenes: list[dict]) -> dict[str, int]:
    """Scenes per bucket of ten eligible objects, e.g. {"10-19": 3}."""
    hist: dict[str, int] = {}
    for scene in scenes:
        lo = eligible_count(scene) // 10 * 10
        key = f"{lo}-{lo + 9}"
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0].split("-")[0])))
