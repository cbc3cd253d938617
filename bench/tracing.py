"""Spans and counters recorded around the package's public functions.

Nothing inside the package changes. ``installed(tracer)`` rebinds each
traced function in every ``spatialbench.*`` namespace that holds it (the
defining module and every module that imported it by name), and the traced
methods on their classes, then restores the originals on exit.

Layer-boundary functions get spans: name, start, end, parent span and
whether the call raised. Predicates called up to ~10^6 times per scene get
call counters only. Observers attached to some spans add counts read off the
arguments and results, such as bytes read or eligible objects.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans and counters of one traced chain, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, outermost, failed)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def span(self, name, fn, observe=None):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = not active[name]
            active[name] += 1
            stack.append(index)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                spans[index] = (name, start, end, parent, outermost, failed)
            if observe is not None:
                observe(self, index, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def counter(self, name, fn):
        counts, key = self.counts, name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def layer_times(self) -> dict[str, float]:
        """Per span name: ``.s`` (outermost calls), ``.self_s`` and ``.calls``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for index, (name, start, end, _, outermost, _) in enumerate(self.spans):
            duration = end - start
            if outermost:
                out[name + ".s"] += duration
            out[name + ".self_s"] += duration - child[index]
            out[name + ".calls"] += 1
        return dict(out)

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start and end (s from the first span), parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _, failed in self.spans:
                fh.write(f'["{name}", {start - t0:.7f}, {end - t0:.7f}, {parent}, {int(failed)}]\n')


# ---------------------------------------------------------------------------
# observers: counts read off a traced call's arguments and result

def _bytes_read(tracer, index, args, kwargs, result):
    tracer.counts["sceneio.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(tracer, index, args, kwargs, result):
    dest = args[0] if args else kwargs["dest"]
    if isinstance(dest, (str, os.PathLike)):  # the file-handle form recurses into this one
        tracer.counts["sceneio.bytes_written"] += os.path.getsize(dest)


def _inline_depth(tracer, index, args, kwargs, result):
    if isinstance(result.get("depth"), list):
        tracer.counts["sceneio.inline_depth_records"] += 1


def _scene_gates(tracer, index, args, kwargs, result):
    from spatialbench.extraction import DEFAULT_CONFIG

    scene = args[0]
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", DEFAULT_CONFIG)
    min_area = cfg.min_rel_area * scene.width * scene.height
    n = sum(1 for obj in scene.objects if obj.score >= cfg.min_score and obj.box.area >= min_area)
    counts = tracer.counts
    counts["extraction.eligible_objects"] += n
    counts["extraction.pairs_considered"] += n * (n - 1)
    counts["extraction.triples_considered"] += n * (n - 1) * (n - 2)
    counts["extraction.relations_out"] += len(result)


def _between_out(tracer, index, args, kwargs, result):
    tracer.counts["extraction.between_out"] += len(result)


def _clause_hit(tracer, index, args, kwargs, result):
    tracer.counts["evaluation.clause_hits"] += result.satisfied


def _stub_records(tracer, index, args, kwargs, result):
    tracer.counts["stub.records"] += len(result[0])


def _tore_line(tracer, index, args, kwargs, result):
    # the line's parse is the first span opened inside this one
    spans = tracer.spans
    parse = spans[index + 1] if index + 1 < len(spans) else None
    if parse is not None and parse[3] == index and parse[0] == "prompts.parse_prompt" and parse[5]:
        tracer.counts["tore.lines_passthrough"] += 1
    elif result != args[0]:
        tracer.counts["tore.lines_flipped"] += 1


# (module, attribute or Class.method, metric name, observer)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("sceneio", "load_eval_records", "sceneio.load_eval_records", _bytes_read),
    ("sceneio", "load_scenes", "sceneio.load_scenes", _bytes_read),
    ("sceneio", "eval_record_from_dict", "sceneio.eval_record_from_dict", None),
    ("sceneio", "scene_from_dict", "sceneio.scene_from_dict", None),
    ("sceneio", "read_depth", "sceneio.read_depth", _bytes_read),
    ("sceneio", "eval_record_to_dict", "sceneio.eval_record_to_dict", None),
    ("sceneio", "scene_to_dict", "sceneio.scene_to_dict", _inline_depth),
    ("sceneio", "relations_to_dict", "sceneio.relations_to_dict", None),
    ("sceneio", "write_jsonl", "sceneio.write_jsonl", _bytes_written),
    ("geometry", "DepthMap.__init__", "geometry.DepthMap.init", None),
    ("geometry", "average_depth", "geometry.average_depth", None),
    ("extraction", "extract_scene", "extraction.extract_scene", _scene_gates),
    ("extraction", "extract_pairwise", "extraction.extract_pairwise", None),
    ("extraction", "extract_between", "extraction.extract_between", _between_out),
    ("prompts", "parse_prompt", "prompts.parse_prompt", None),
    ("prompts", "render_prompt", "prompts.render_prompt", None),
    ("prompts", "sample_prompt_set", "prompts.sample_prompt_set", None),
    ("lexicon", "PhraseLexicon.token_index", "lexicon.token_index", None),
    ("evaluation", "evaluate_records", "evaluation.evaluate_records", None),
    ("evaluation", "score_record", "evaluation.score_record", None),
    ("evaluation", "score_clause", "evaluation.score_clause", _clause_hit),
    ("stub", "stub_generate", "stub.stub_generate", _stub_records),
    ("tore", "transform_prompt", "tore.transform_prompt", _tore_line),
)
COUNTERS = (
    ("geometry", "check_directional", "geometry.check_directional"),
    ("geometry", "check_next", "geometry.check_next"),
    ("geometry", "check_between", "geometry.check_between"),
    ("geometry", "check_depth_relation", "geometry.check_depth_relation"),
    ("lexicon", "PhraseLexicon.max_phrase_tokens", "lexicon.max_phrase_tokens"),
)


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function and method through ``tracer`` while inside."""
    import spatialbench.cli  # noqa: F401  (imports every package module)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "spatialbench" or name.startswith("spatialbench.")]
    targets = [
        (module, attr, functools.partial(tracer.span, metric, observe=observe))
        for module, attr, metric, observe in SPANS
    ] + [
        (module, attr, functools.partial(tracer.counter, metric))
        for module, attr, metric in COUNTERS
    ]
    undo = []
    try:
        for module_name, attr, wrap in targets:
            home = sys.modules[f"spatialbench.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, wrap(original))
                undo.append((cls, method, original))
                continue
            original = getattr(home, attr)
            wrapped = wrap(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
                        undo.append((module, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every span time and counter, plus the derived ratios."""
    out: dict[str, float] = {**tracer.layer_times(), **tracer.counts}
    triples = out.get("extraction.triples_considered", 0)
    out["extraction.between_yield"] = out.get("extraction.between_out", 0) / triples if triples else 0.0
    scored = out.get("evaluation.score_clause.calls", 0)
    out["evaluation.clauses_scored"] = scored
    out["evaluation.clause_hit_ratio"] = out.get("evaluation.clause_hits", 0) / scored if scored else 0.0
    return out
