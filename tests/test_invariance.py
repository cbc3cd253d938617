"""Mirror invariance: the metric has no side of its own.

A measured bias belongs to the model only if the metric treats the two sides
of every opposite pair alike. Three maps of a scene each swap one pair:

- the horizontal mirror, x -> W - x with the depth columns reversed, swaps
  LEFT and RIGHT and reverses Between's flankers;
- the vertical mirror, y -> H - y with the depth rows reversed, swaps TOP
  and BOTTOM;
- depth reversal, d -> c - d, swaps FRONT and BEHIND.

A map is exact only where its arithmetic is. Coordinates are quarter pixels
and depths small integers, so every mirrored box, center and mean is the
exact image of the original, and each map must hold without exception.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialbench.evaluation import score_clause
from spatialbench.extraction import DetectedObject, ExtractionConfig, Scene, extract_scene
from spatialbench.geometry import BoundingBox, DepthMap
from spatialbench.prompts import PromptSpec, RelationQuadruple, parse_prompt, render_prompt
from spatialbench.relations import RelationKind, Strictness
from spatialbench.tore import BiasProfile, ToreConfig, transform_prompt

from strategies import prompt_specs

K = RelationKind
SIDE = 12  # scene width and height, in pixels
LABELS = ("a", "b", "c")
DEEPEST = 63  # depth values lie in [0, DEEPEST]


def _swap(a: RelationKind, b: RelationKind) -> dict[RelationKind, RelationKind]:
    return {kind: {a: b, b: a}.get(kind, kind) for kind in RelationKind}


def _mirror_x(scene: Scene) -> Scene:
    w = scene.width
    objects = [DetectedObject(o.label, BoundingBox(w - o.box.x_max, o.box.y_min,
                                                   w - o.box.x_min, o.box.y_max), o.score)
               for o in scene.objects]
    depth = DepthMap([row[::-1] for row in scene.depth.values])
    return Scene(scene.image_id, w, scene.height, tuple(objects), depth=depth)


def _mirror_y(scene: Scene) -> Scene:
    h = scene.height
    objects = [DetectedObject(o.label, BoundingBox(o.box.x_min, h - o.box.y_max,
                                                   o.box.x_max, h - o.box.y_min), o.score)
               for o in scene.objects]
    depth = DepthMap(scene.depth.values[::-1])
    return Scene(scene.image_id, scene.width, h, tuple(objects), depth=depth)


def _reverse_depth(scene: Scene) -> Scene:
    depth = DepthMap([[DEEPEST - d for d in row] for row in scene.depth.values])
    return Scene(scene.image_id, scene.width, scene.height, scene.objects, depth=depth)


# each map: the scene transform, the kind it gives each kind, and whether
# Between's flankers trade places
MAPS = {
    "horizontal": (_mirror_x, _swap(K.LEFT, K.RIGHT), True),
    "vertical": (_mirror_y, _swap(K.TOP, K.BOTTOM), False),
    "depth": (_reverse_depth, _swap(K.FRONT, K.BEHIND), False),
}


@st.composite
def quarter_boxes(draw) -> BoundingBox:
    x0, x1 = sorted(draw(st.lists(st.integers(0, 4 * SIDE), min_size=2, max_size=2,
                                  unique=True)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, 4 * SIDE), min_size=2, max_size=2,
                                  unique=True)))
    return BoundingBox(x0 / 4, y0 / 4, x1 / 4, y1 / 4)


@st.composite
def scenes(draw) -> Scene:
    n = draw(st.integers(2, 7))
    objects = tuple(DetectedObject(draw(st.sampled_from(LABELS)), draw(quarter_boxes()))
                    for _ in range(n))
    depth = DepthMap(draw(st.lists(
        st.lists(st.integers(0, DEEPEST), min_size=SIDE, max_size=SIDE),
        min_size=SIDE, max_size=SIDE)))
    return Scene("img", SIDE, SIDE, objects, depth=depth)


TAUS = st.sampled_from([1.5, 2.0, 3.0, 5.0])


def _clauses():
    for kind in RelationKind:
        n = 2 if kind is K.BETWEEN else 1
        for subject, *objects in itertools.product(LABELS, repeat=n + 1):
            yield RelationQuadruple(subject, kind, tuple(objects))


CLAUSES = tuple(_clauses())


@pytest.mark.parametrize("name", sorted(MAPS))
@given(scene=scenes(), tau=TAUS)
@settings(max_examples=100, deadline=None)
def test_score_clause_sees_the_mapped_clause_in_the_mapped_scene(name, scene, tau):
    transform, kinds, flankers_trade = MAPS[name]
    mapped, s = transform(scene), Strictness(tau)
    for clause in CLAUSES:
        objects = clause.objects[::-1] if flankers_trade else clause.objects
        image = RelationQuadruple(clause.subject, kinds[clause.kind], objects)
        assert (score_clause(image, mapped, s).satisfied
                == score_clause(clause, scene, s).satisfied), clause


@pytest.mark.parametrize("name", sorted(MAPS))
@given(scene=scenes(), tau=TAUS)
@settings(max_examples=100, deadline=None)
def test_extract_scene_finds_the_mapped_relations_in_the_mapped_scene(name, scene, tau):
    transform, kinds, flankers_trade = MAPS[name]
    cfg = ExtractionConfig(tau=tau)

    def facts(relations, kind_of=lambda kind: kind, trade=False):
        return sorted((r.subject, r.objects[::-1] if trade and r.kind is K.BETWEEN
                       else r.objects, kind_of(r.kind).value) for r in relations)

    expected = facts(extract_scene(scene, cfg), kinds.get, flankers_trade)
    assert facts(extract_scene(transform(scene), cfg)) == expected


def _mirror_spec(spec: PromptSpec) -> PromptSpec:
    """The prompt of the horizontally mirrored scene."""
    left_right = _swap(K.LEFT, K.RIGHT)
    return PromptSpec(tuple(
        RelationQuadruple(q.subject, left_right[q.kind],
                          q.objects[::-1] if q.kind is K.BETWEEN else q.objects)
        for q in spec.clauses), spec.context)


LEVELS = st.sampled_from([0.0, 0.2, 0.4, 0.8, 1.0])


@given(spec=prompt_specs(), left=LEVELS, right=LEVELS, top=LEVELS, bottom=LEVELS)
@settings(max_examples=300, deadline=None)
def test_a_mirrored_bias_table_flips_the_mirrored_prompt(spec, left, right, top, bottom):
    # the mirrored model renders left as well as the first renders right
    table = {"left_right": {"left": left, "right": right},
             "top_bottom": {"top": top, "bottom": bottom}}
    mirrored = {**table, "left_right": {"left": right, "right": left}}
    rewritten = transform_prompt(render_prompt(spec), ToreConfig(BiasProfile(table)))
    expected = render_prompt(_mirror_spec(parse_prompt(rewritten)))
    got = transform_prompt(render_prompt(_mirror_spec(spec)), ToreConfig(BiasProfile(mirrored)))
    assert got == expected


def test_swapped_left_right_sides_flip_the_other_way():
    text = "A bus to the right of a car in a city"
    table = {"left_right": {"left": 0.8, "right": 0.2}}
    swapped = {"left_right": {"left": 0.2, "right": 0.8}}
    assert transform_prompt(text, ToreConfig(BiasProfile(table))) == (
        "A car to the left of a bus in a city")
    assert transform_prompt(text, ToreConfig(BiasProfile(swapped))) == text
    assert transform_prompt("A bus to the left of a car in a city",
                            ToreConfig(BiasProfile(swapped))) == (
        "A car to the right of a bus in a city")
