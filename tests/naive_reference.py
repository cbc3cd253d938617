"""Naive reference implementations used as test oracles.

Everything here is transcribed longhand from the distance definitions and
constraint inequalities, on plain (x_min, y_min, x_max, y_max) tuples. It
deliberately shares no code with the package so agreement is meaningful.

Six layers:
  * scalar predicates (the primary oracle),
  * numpy transcriptions of the same formulas for exhaustive grid sweeps,
  * a dead-simple scene extractor mirroring the extraction rules,
  * the quadratic pool scan for prompt sampling,
  * the numpy depth grid and box mean that DepthMap's pure-Python reader
    and mean are checked against,
  * the exact Fraction box mean that bounds a float map's rounding.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

RIGHT, LEFT, TOP, BOTTOM = "right", "left", "top", "bottom"
HORIZONTAL = (RIGHT, LEFT)


# ---------------------------------------------------------------------------
# scalar predicates

def naive_axis_distances(b1, b2):
    """Location-independent distances; minuend is the wider/taller box per axis."""
    w1, h1 = b1[2] - b1[0], b1[3] - b1[1]
    w2, h2 = b2[2] - b2[0], b2[3] - b2[1]
    if w1 < w2:
        ha, hb = b2, b1
    else:
        ha, hb = b1, b2
    if h1 < h2:
        va, vb = b2, b1
    else:
        va, vb = b1, b2
    x_max_dist = ha[2] - hb[2]
    x_min_dist = ha[0] - hb[0]
    y_max_dist = va[3] - vb[3]
    y_min_dist = va[1] - vb[1]
    return x_max_dist, x_min_dist, y_max_dist, y_min_dist


def naive_directional_distance(b1, b2, loc):
    if loc == RIGHT:
        return b1[0] - b2[2]
    if loc == LEFT:
        return b2[0] - b1[2]
    if loc == BOTTOM:
        return b1[1] - b2[3]
    if loc == TOP:
        return b2[1] - b1[3]
    raise ValueError(loc)


def naive_check_directional(b1, b2, loc, tau):
    w1, h1 = b1[2] - b1[0], b1[3] - b1[1]
    w2, h2 = b2[2] - b2[0], b2[3] - b2[1]
    min_w = min(w1, w2)
    min_h = min(h1, h2)
    x_max_dist, x_min_dist, y_max_dist, y_min_dist = naive_axis_distances(b1, b2)
    dist = naive_directional_distance(b1, b2, loc)
    if loc in HORIZONTAL:
        return (dist > -min_w / tau
                and y_max_dist < min_h / tau
                and y_min_dist > -min_h / tau)
    return (dist > -min_h / tau
            and x_max_dist < min_w / tau
            and x_min_dist > -min_w / tau)


def naive_check_next(b1, b2, tau):
    return (naive_check_directional(b1, b2, RIGHT, tau)
            or naive_check_directional(b1, b2, LEFT, tau))


def naive_check_between(b_left, b_mid, b_right, tau):
    return (naive_check_directional(b_left, b_mid, LEFT, tau)
            and naive_check_directional(b_right, b_mid, RIGHT, tau))


def naive_check_depth_overlap(b1, b2, tau):
    w1, h1 = b1[2] - b1[0], b1[3] - b1[1]
    w2, h2 = b2[2] - b2[0], b2[3] - b2[1]
    min_w = min(w1, w2)
    min_h = min(h1, h2)
    x_max_dist, x_min_dist, y_max_dist, y_min_dist = naive_axis_distances(b1, b2)
    return (x_max_dist < min_w / tau
            and x_min_dist > -min_w / tau
            and y_max_dist < min_h / tau
            and y_min_dist > -min_h / tau)


def naive_average_depth(rows, b):
    """Mean over integer pixels in [floor(x_min), ceil(x_max)) clipped to the map.

    rows is a list of lists (row-major), value = closeness. Returns None when
    the clipped region is empty.
    """
    height = len(rows)
    width = len(rows[0]) if height else 0
    x0 = max(0, math.floor(b[0]))
    x1 = min(width, math.ceil(b[2]))
    y0 = max(0, math.floor(b[1]))
    y1 = min(height, math.ceil(b[3]))
    if x1 <= x0 or y1 <= y0:
        return None
    total = 0.0
    count = 0
    for y in range(y0, y1):
        for x in range(x0, x1):
            total += rows[y][x]
            count += 1
    return total / count


def naive_depth_relation(b1, b2, rows, tau):
    """Returns "front", "behind" or None (no overlap / tie)."""
    if not naive_check_depth_overlap(b1, b2, tau):
        return None
    d1 = naive_average_depth(rows, b1)
    d2 = naive_average_depth(rows, b2)
    if d1 is None or d2 is None:
        raise ValueError("empty depth region")
    if d1 > d2:
        return "front"
    if d1 < d2:
        return "behind"
    return None


# ---------------------------------------------------------------------------
# vectorized transcriptions (for exhaustive grid sweeps)
#
# Boxes are float arrays of shape (..., 4) in x_min, y_min, x_max, y_max order.
# The formulas are re-derived from the same equations, with np.where doing the
# per-axis swap.

def _dims(b):
    return b[..., 2] - b[..., 0], b[..., 3] - b[..., 1]


def naive_batch_axis_distances(b1, b2):
    w1, h1 = _dims(b1)
    w2, h2 = _dims(b2)
    hswap = w1 < w2
    vswap = h1 < h2
    x_max_dist = np.where(hswap, b2[..., 2] - b1[..., 2], b1[..., 2] - b2[..., 2])
    x_min_dist = np.where(hswap, b2[..., 0] - b1[..., 0], b1[..., 0] - b2[..., 0])
    y_max_dist = np.where(vswap, b2[..., 3] - b1[..., 3], b1[..., 3] - b2[..., 3])
    y_min_dist = np.where(vswap, b2[..., 1] - b1[..., 1], b1[..., 1] - b2[..., 1])
    return x_max_dist, x_min_dist, y_max_dist, y_min_dist


def naive_batch_directional(b1, b2, loc, tau):
    w1, h1 = _dims(b1)
    w2, h2 = _dims(b2)
    min_w = np.minimum(w1, w2)
    min_h = np.minimum(h1, h2)
    x_max_dist, x_min_dist, y_max_dist, y_min_dist = naive_batch_axis_distances(b1, b2)
    if loc == RIGHT:
        dist = b1[..., 0] - b2[..., 2]
    elif loc == LEFT:
        dist = b2[..., 0] - b1[..., 2]
    elif loc == BOTTOM:
        dist = b1[..., 1] - b2[..., 3]
    elif loc == TOP:
        dist = b2[..., 1] - b1[..., 3]
    else:
        raise ValueError(loc)
    if loc in HORIZONTAL:
        return ((dist > -min_w / tau)
                & (y_max_dist < min_h / tau)
                & (y_min_dist > -min_h / tau))
    return ((dist > -min_h / tau)
            & (x_max_dist < min_w / tau)
            & (x_min_dist > -min_w / tau))


def naive_batch_next(b1, b2, tau):
    return naive_batch_directional(b1, b2, RIGHT, tau) | naive_batch_directional(b1, b2, LEFT, tau)


def naive_batch_between(b_left, b_mid, b_right, tau):
    return (naive_batch_directional(b_left, b_mid, LEFT, tau)
            & naive_batch_directional(b_right, b_mid, RIGHT, tau))


def naive_batch_depth_overlap(b1, b2, tau):
    w1, h1 = _dims(b1)
    w2, h2 = _dims(b2)
    min_w = np.minimum(w1, w2)
    min_h = np.minimum(h1, h2)
    x_max_dist, x_min_dist, y_max_dist, y_min_dist = naive_batch_axis_distances(b1, b2)
    return ((x_max_dist < min_w / tau)
            & (x_min_dist > -min_w / tau)
            & (y_max_dist < min_h / tau)
            & (y_min_dist > -min_h / tau))


def grid_boxes(n):
    """All boxes with integer corners on an n x n grid, as a float array."""
    spans = [(lo, hi) for lo in range(n + 1) for hi in range(lo + 1, n + 1)]
    out = [(x0, y0, x1, y1) for x0, x1 in spans for y0, y1 in spans]
    return np.array(out, dtype=np.float64)


# ---------------------------------------------------------------------------
# naive scene extraction
#
# Mirrors the extraction rules directly: eligibility by score/relative area,
# pairwise proximity by center distance, directional + next + depth emissions
# with the drop_pair ambiguity rule, and the between triplet sweep.

def naive_extract(scene, tau=3.0, min_rel_area=0.01, max_center_dist=0.5,
                  min_score=0.3, drop_ambiguous=True, emit_next_when_directional=True):
    """scene: dict with width, height, objects=[(box, score)], depth=rows or None.

    Returns a set of (kind, subject, objects-tuple) triples.
    """
    width, height = scene["width"], scene["height"]
    rows = scene.get("depth")
    eligible = []
    for idx, (box, score) in enumerate(scene["objects"]):
        area = (box[2] - box[0]) * (box[3] - box[1])
        if score >= min_score and area >= min_rel_area * width * height:
            eligible.append(idx)

    out = set()
    diag = math.sqrt(width * width + height * height)
    for i in eligible:
        for j in eligible:
            if i == j:
                continue
            b1 = scene["objects"][i][0]
            b2 = scene["objects"][j][0]
            c1 = ((b1[0] + b1[2]) / 2, (b1[1] + b1[3]) / 2)
            c2 = ((b2[0] + b2[2]) / 2, (b2[1] + b2[3]) / 2)
            if math.dist(c1, c2) > max_center_dist * diag:
                continue
            hits = [loc for loc in (RIGHT, LEFT, TOP, BOTTOM)
                    if naive_check_directional(b1, b2, loc, tau)]
            ambiguous = any(h in HORIZONTAL for h in hits) and any(h not in HORIZONTAL for h in hits)
            directional = [] if (drop_ambiguous and ambiguous) else hits
            for loc in directional:
                out.add((loc, i, (j,)))
            if naive_check_next(b1, b2, tau):
                if emit_next_when_directional or not directional:
                    out.add(("next", i, (j,)))
            if rows is not None:
                rel = naive_depth_relation(b1, b2, rows, tau)
                if rel is not None:
                    out.add((rel, i, (j,)))
    for i in eligible:
        for j in eligible:
            for k in eligible:
                if len({i, j, k}) != 3:
                    continue
                bl = scene["objects"][i][0]
                bm = scene["objects"][j][0]
                br = scene["objects"][k][0]
                if naive_check_between(bl, bm, br, tau):
                    out.add(("between", j, (i, k)))
    return out


# ---------------------------------------------------------------------------
# naive prompt sampling
#
# The pool scan sample_prompt_set once ran: every candidate first clause is
# checked against every other pool entry for a shared noun phrase, and a
# partner that states the first clause's converse is drawn again. Relations
# are plain (subject, kind, objects-tuple) triples with the kind as its
# string value, and every kept one draws a context; each prompt comes back as
# (clauses, context), every clause a triple.

NAIVE_KIND_ORDER = ("right", "left", "top", "bottom", "next", "between", "front", "behind")
NAIVE_OPPOSITE = {"right": "left", "left": "right", "top": "bottom", "bottom": "top",
                  "front": "behind", "behind": "front"}


class NaivePoolTooSmall(Exception):
    """The pool cannot cover a requested per-kind count."""


def naive_sample_prompt_set(relations, simple_counts, complex_counts, seed, contexts):
    rng = random.Random(seed)
    pool = []
    for subject, kind, objects in relations:
        if kind in (RIGHT, LEFT, TOP, BOTTOM) and subject in objects:
            continue
        pool.append((subject, kind, objects, rng.choice(contexts)))

    def shares_phrase(a, b):
        a_phrases = set([a[0]]) | set(a[2])
        b_phrases = set([b[0]]) | set(b[2])
        return len(a_phrases & b_phrases) > 0

    def converse(a, b):
        # "A right of B" against "B right of A" or "A left of B"
        if a[1] not in NAIVE_OPPOSITE or a[0] == a[2][0]:
            return False
        swapped = b[1] == a[1] and b[0] == a[2][0] and b[2] == (a[0],)
        opposite = b[1] == NAIVE_OPPOSITE[a[1]] and b[0] == a[0] and b[2] == a[2]
        return swapped or opposite

    out = []
    for kind in NAIVE_KIND_ORDER:
        if kind not in simple_counts:
            continue
        n = simple_counts[kind]
        members = [i for i in range(len(pool)) if pool[i][1] == kind]
        if len(members) < n:
            raise NaivePoolTooSmall(kind)
        for i in sorted(rng.sample(members, n)):
            subject, _, objects, context = pool[i]
            out.append((((subject, kind, objects),), context))

    for kind in NAIVE_KIND_ORDER:
        if kind not in complex_counts:
            continue
        n = complex_counts[kind]
        eligible = []
        for i in range(len(pool)):
            if pool[i][1] != kind:
                continue
            for j in range(len(pool)):
                if j != i and shares_phrase(pool[i], pool[j]) and not converse(pool[i], pool[j]):
                    eligible.append(i)
                    break
        if len(eligible) < n:
            raise NaivePoolTooSmall(kind)
        for i in sorted(rng.sample(eligible, n)):
            partners = []
            for j in range(len(pool)):
                if j != i and shares_phrase(pool[i], pool[j]):
                    partners.append(j)
            j = rng.choice(partners)
            if converse(pool[i], pool[j]):
                j = rng.choice([k for k in partners if not converse(pool[i], pool[k])])
            first = (pool[i][0], pool[i][1], pool[i][2])
            second = (pool[j][0], pool[j][1], pool[j][2])
            out.append(((first, second), pool[i][3]))
    return out


# ---------------------------------------------------------------------------
# numpy depth grid
#
# What DepthMap checked and stored when it held a numpy array: the same
# accept/reject rules and messages, the dtype its values reported, and the
# box mean it took with ndarray.mean().


def numpy_depth_grid(values):
    """The read-only grid for values, or ValueError for a grid DepthMap rejects."""
    try:
        arr = np.asarray(values)
    except TypeError:
        raise ValueError("depth values must be numbers") from None
    except ValueError:
        raise ValueError("depth values must form a non-empty 2D grid, got ragged rows") from None
    kind = arr.dtype.kind
    if kind not in "iuf":
        raise ValueError("depth values must be numbers")
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"depth values must form a non-empty 2D grid, got shape {arr.shape}")
    if kind == "f" and not np.isfinite(arr).all():
        raise ValueError("depth values must be finite")
    if kind != "u" and (arr < 0).any():
        raise ValueError("depth values must be >= 0")
    exact = kind != "f" and int(arr.max()) * arr.size < 2**53
    arr = arr.astype(arr.dtype.newbyteorder("=") if exact else np.float64)
    arr.setflags(write=False)
    return arr


def numpy_average_depth(grid, b):
    """Box mean over the clipped half-open pixel footprint; None when it is empty."""
    height, width = grid.shape
    x0, x1 = max(0, math.floor(b[0])), min(width, math.ceil(b[2]))
    y0, y1 = max(0, math.floor(b[1])), min(height, math.ceil(b[3]))
    if x1 <= x0 or y1 <= y0:
        return None
    with np.errstate(over="ignore"):  # a float sum past the float range reads inf
        return float(grid[y0:y1, x0:x1].mean())


def exact_average_depth(rows, b):
    """The exact Fraction mean over the clipped footprint of rows; None when it is empty."""
    height, width = len(rows), len(rows[0])
    x0, x1 = max(0, math.floor(b[0])), min(width, math.ceil(b[2]))
    y0, y1 = max(0, math.floor(b[1])), min(height, math.ceil(b[3]))
    if x1 <= x0 or y1 <= y0:
        return None
    cells = [Fraction(rows[y][x]) for y in range(y0, y1) for x in range(x0, x1)]
    return sum(cells) / len(cells)
