"""Command line front end.

Subcommands wire the library together: extract relations from detection
scenes, sample benchmark prompts, rewrite prompts against a bias profile,
score generated scenes, derive bias tables and profiles, filter captions,
and fabricate synthetic scenes for pipeline tests.

Every subcommand takes --output. The commands that draw or record a seed
(gen-prompts, stub-gen, evaluate, bias-report) take --seed; the other three
read no randomness. The commands that score or extract (extract, evaluate,
bias-report) also take --tau, the strictness divisor, which is the one
setting scoring reads. extract alone takes --config: a file holding a JSON
object whose keys are the ExtractionConfig fields and whose values are
numbers, and an explicit --tau wins. evaluate and bias-report take
--format; stub-gen has its own --tau. All randomness flows from --seed, and
the same inputs and seed make every subcommand byte-reproducible.

Every input file is split into lines and decoded as JSON by textutil, so a
fault in any of them is one error line naming the file and the line; every
output, on stdout or in a file, is written by textutil as UTF-8.

Only errors is imported normally. Every other package module is registered
as a lazy module and runs when a command first reads one of its
attributes, so --help runs none of them, extract runs no prompt rewriting
or scoring module (tore, evaluation, stub), and the prompt commands run no
scoring module.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import FormatError, NoSamples, ParseError, SpatialBenchError


def _lazy_module(name: str):
    """The package module ``name``, put in sys.modules now but run on first attribute read."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Commands call functions through their module (sceneio.load_scenes(...)),
# so that a function rebound in its home module is what runs. geometry is
# unused here but registered too: importing this module puts every package
# module in sys.modules, which bench/tracing.py relies on.
captions = _lazy_module("captions")
evaluation = _lazy_module("evaluation")
extraction = _lazy_module("extraction")
lexicon = _lazy_module("lexicon")
prompts = _lazy_module("prompts")
relations = _lazy_module("relations")
sceneio = _lazy_module("sceneio")
stub = _lazy_module("stub")
textutil = _lazy_module("textutil")
tore = _lazy_module("tore")
_lazy_module("geometry")

__all__ = ["main"]


def _kind_and(convert, form: str):
    """An argparse type for KIND=value; form, with {kinds} for the kinds, names it in an error."""
    def parse(text: str) -> tuple[relations.RelationKind, int | float]:
        try:
            name, _, value = text.partition("=")
            return relations.RelationKind(name.strip().lower()), convert(value)
        except ValueError:
            kinds = [k.value for k in relations.RelationKind]
            raise argparse.ArgumentTypeError(
                f"expected {form.format(kinds=kinds)}, got {text!r}") from None
    return parse


_kind_count = _kind_and(int, "KIND=N with KIND one of {kinds}")
_kind_probability = _kind_and(float, "KIND=P with P a probability")


def _build_parser() -> argparse.ArgumentParser:
    # flag groups; each command takes only the groups it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=Path, default=None,
                        help="output file (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--tau", type=float, default=None,
                         help="strictness divisor (default 3)")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format")

    parser = argparse.ArgumentParser(
        prog="spatialbench",
        description="Spatial-relation benchmark tools: extraction, prompts, "
                    "bias-aware rewriting, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("extract", parents=[common, scoring],
                       help="extract relation facts from detection scenes")
    p.add_argument("scenes", type=Path, help="scene JSONL file")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON extraction config file")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("gen-prompts", parents=[common, seeded],
                       help="sample benchmark prompts from the object lexicon")
    p.add_argument("--simple", type=_kind_count, action="append", default=[],
                   metavar="KIND=N", help="simple prompts per kind (repeatable)")
    p.add_argument("--complex", type=_kind_count, action="append", default=[],
                   metavar="KIND=N", help="complex prompts per first-clause kind")
    p.add_argument("--objects", type=Path, default=None, help="object list file")
    p.add_argument("--contexts", type=Path, default=None, help="context list file")
    p.add_argument("--pool-size", type=int, default=None,
                   help="candidate pool size per kind (default 4x the largest count, "
                        "at least 1000)")
    p.add_argument("--invert", action="store_true",
                   help="append the opposite-side version of every prompt")
    p.set_defaults(func=_cmd_gen_prompts)

    p = sub.add_parser("tore", parents=[common],
                       help="rewrite prompts toward each pair's stronger side")
    p.add_argument("--profile", required=True,
                   help="bias profile: a JSON file path or a builtin name")
    p.add_argument("--pairs", default=None,
                   help="comma-separated pair ids to enable (default all)")
    p.add_argument("prompts", help="prompt text file, one per line ('-' for stdin)")
    p.set_defaults(func=_cmd_tore)

    p = sub.add_parser("evaluate", parents=[common, seeded, scoring, report],
                       help="score evaluation records into a benchmark report")
    p.add_argument("records", type=Path, help="evaluation record JSONL file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bias-report", parents=[common, seeded, scoring, report],
                       help="per-pair side accuracies, optionally saved as a profile")
    p.add_argument("records", type=Path, help="evaluation record JSONL file")
    p.add_argument("--emit-profile", type=Path, default=None,
                   help="also write a bias profile JSON derived from the report")
    p.set_defaults(func=_cmd_bias_report)

    p = sub.add_parser("filter-captions", parents=[common],
                       help="keep captions naming an urban object and a context")
    p.add_argument("captions", type=Path, help="caption JSONL file")
    p.add_argument("--objects", type=Path, default=None, help="object list file")
    p.add_argument("--contexts", type=Path, default=None, help="context list file")
    p.set_defaults(func=_cmd_filter_captions)

    p = sub.add_parser("stub-gen", parents=[common, seeded],
                       help="fabricate synthetic scenes for prompts")
    p.add_argument("--tau", type=float, default=3.0,
                   help="strictness divisor the verdicts use, at least 1 (default 3)")
    p.add_argument("prompts", help="prompt text file, one per line ('-' for stdin)")
    p.add_argument("--p", type=_kind_probability, action="append", default=[],
                   metavar="KIND=P", help="satisfaction probability per kind")
    p.add_argument("--width", type=int, default=128, help="scene width")
    p.add_argument("--height", type=int, default=128, help="scene height")
    p.add_argument("--plans", type=Path, default=None,
                   help="also write per-record clause verdicts as JSONL")
    p.set_defaults(func=_cmd_stub_gen)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing

def _strictness(args) -> relations.Strictness:
    try:
        return relations.DEFAULT_STRICTNESS if args.tau is None else relations.Strictness(args.tau)
    except ValueError as exc:  # "tau must be ...": the flag's name without its dashes
        raise SpatialBenchError(f"--{exc}") from None


def _per_kind(flag: str, pairs) -> dict:
    """A repeatable KIND=value flag's pairs as a dict, each kind once."""
    values: dict = {}
    for kind, value in pairs:
        if kind in values:
            raise SpatialBenchError(f"{flag} {kind.value} given twice")
        values[kind] = value
    return values


def _extraction_config(args) -> extraction.ExtractionConfig:
    from dataclasses import fields, replace  # loaded with extraction; --help never needs it

    cfg = extraction.DEFAULT_CONFIG
    config_path = args.config
    if config_path is not None:
        with _naming(f"config {config_path}", (FormatError, OSError)):
            raw = textutil.json_value(config_path.read_bytes())
        if not isinstance(raw, dict):
            raise SpatialBenchError(f"config {config_path} must hold a JSON object")
        keys = {f.name for f in fields(extraction.ExtractionConfig)}
        unknown = sorted(set(raw) - keys)
        if unknown:
            raise SpatialBenchError(f"config {config_path}: unknown keys: {', '.join(unknown)}")
        for key, value in raw.items():
            if not textutil.is_number(value):
                raise FormatError(f"config {config_path}: expected a number, "
                                  f"got {textutil.json_echo(value)}", field=key)
        # an int past the float range reads as inf, as in a scene
        try:
            cfg = extraction.ExtractionConfig(**{k: textutil.as_float(v) for k, v in raw.items()})
        except ValueError as exc:  # "min_score must be ...": the field's name comes first
            raise FormatError(f"config {config_path}: {exc}", field=str(exc).split()[0]) from None
    if args.tau is not None:
        cfg = replace(cfg, tau=_strictness(args).tau)
    return cfg


@contextmanager
def _naming(where: str, errors: tuple[type[Exception], ...] = (FormatError,)):
    """Prefix an error raised inside with the file, or the flag and file, it is about."""
    try:
        yield
    except errors as exc:
        raise SpatialBenchError(f"{where}: {exc}") from None


def _lexicon_file(flag: str, path: Path | None):
    """Name the flag and file in an error raised while reading or checking its list."""
    return _naming(f"{flag} {path}", (FormatError, OSError, ValueError))


def _prompt_file(source: str):
    """Name the prompt file in a FormatError about one of its lines."""
    return _naming("<stdin>" if source == "-" else source)


def _read_lines(source: str) -> list[str]:
    with _prompt_file(source):
        if source == "-":
            return [line for _, line in textutil.read_lines(sys.stdin.buffer)]
        with open(source, "rb") as fh:
            return [line for _, line in textutil.read_lines(fh)]


def _load_lexicon(args, object_check=None,
                  context_check=None) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The --objects and --contexts lists, or the shipped ones; a check runs on each given entry."""
    with _lexicon_file("--objects", args.objects):
        objects = (lexicon._phrase_list(args.objects, "object", object_check) if args.objects
                   else lexicon.default_objects())
    with _lexicon_file("--contexts", args.contexts):
        contexts = (lexicon._phrase_list(args.contexts, "context", context_check)
                    if args.contexts else lexicon.default_contexts())
    return objects, contexts


# ---------------------------------------------------------------------------
# subcommands

def _cmd_extract(args) -> int:
    cfg = _extraction_config(args)
    # one scene (and its depth map) is alive at a time; the small relation
    # dicts are kept, so a bad line fails the run before anything is written
    with _naming(str(args.scenes)):
        dicts = [sceneio.relations_to_dict(scene, extraction.extract_scene(scene, cfg))
                 for scene in sceneio.load_scenes(args.scenes)]
    textutil.write_jsonl(args.output, dicts)
    return 0


def _cmd_gen_prompts(args) -> int:
    simple, complex_counts = (_per_kind(flag, pairs) for flag, pairs in (
        ("--simple", args.simple), ("--complex", getattr(args, "complex"))))
    if not simple and not complex_counts:
        raise SpatialBenchError("nothing to generate: pass --simple and/or --complex")
    # the prompt grammar's rules (no comma; no "in a" in a context), which captions need not follow
    objects, contexts = _load_lexicon(args, prompts._normalized_object, prompts._normalized_context)
    kinds = sorted(set(simple) | set(complex_counts), key=lambda k: k.value)
    largest = max([*simple.values(), *complex_counts.values()])
    pool_size = max(1000, 4 * largest) if args.pool_size is None else args.pool_size
    # the prompt-set rules are prompts' own; each message starts with the
    # argument's name, and the flag that gave the argument takes its place
    flags = {"size": "--pool-size", "objects": f"--objects {args.objects}",
             "simple": "--simple", "complex": "--complex"}
    try:
        pool = prompts.candidate_pool(kinds, objects, pool_size, seed=args.seed)
        specs = prompts.sample_prompt_set(pool, simple, complex_counts or None,
                                          seed=args.seed, contexts=contexts)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        raise SpatialBenchError(f"{flags.get(name, name)} {rest}") from None
    if args.invert:
        # between has no inverse form, so such prompts are kept as-is
        specs = specs + [
            prompts.PromptSpec(tuple(relations.invert(c) for c in spec.clauses), spec.context)
            for spec in specs
            if all(c.kind.has_opposite for c in spec.clauses)
        ]
    text = "".join(prompts.render_prompt(spec) + "\n" for spec in specs)
    textutil.write_utf8(args.output, text)
    return 0


def _cmd_tore(args) -> int:
    path = Path(args.profile)
    profile = tore.load_bias_profile(path) if path.exists() else tore.builtin_profile(args.profile)
    pairs = tore.PAIR_IDS if args.pairs is None else (p.strip() for p in args.pairs.split(","))
    try:
        cfg = tore.ToreConfig(profile, frozenset(p for p in pairs if p))
    except ValueError as exc:
        raise SpatialBenchError(f"--pairs {args.pairs!r}: {exc}") from None
    lines = _read_lines(args.prompts)
    # a prompt file repeats each prompt once per image to generate: a line's
    # rewrite depends on its exact text alone, so each distinct text is rewritten once
    rewritten = {line: tore.transform_prompt(line, cfg) + "\n" for line in dict.fromkeys(lines)}
    textutil.write_utf8(args.output, "".join([rewritten[line] for line in lines]))
    return 0


def _evaluate(args) -> evaluation.BenchReport:
    strictness = _strictness(args)
    with _naming(str(args.records), (FormatError, NoSamples)):
        records = sceneio.load_eval_records(args.records)
        return evaluation.evaluate_records(records, strictness, seed=args.seed)


def _cmd_evaluate(args) -> int:
    report = _evaluate(args)
    textutil.write_utf8(args.output,
                        report.to_json() if args.format == "json" else report.to_text())
    return 0


def _cmd_bias_report(args) -> int:
    report = _evaluate(args)
    if args.emit_profile is not None:
        tore.compute_bias_profile(report)  # refuses a table no profile can be read from
    # a profile file is the bias table itself, so one encoding serves both
    table = textutil.json_document(report.bias)
    textutil.write_utf8(args.output, table if args.format == "json" else report.bias_text())
    if args.emit_profile is not None:
        textutil.write_utf8(args.emit_profile, table)
    return 0


def _cmd_filter_captions(args) -> int:
    objects, contexts = _load_lexicon(args)
    lex = captions.ObjectLexicon(frozenset(objects), frozenset(contexts))
    with _naming(str(args.captions)):
        records = captions.load_captions(args.captions)
    kept = captions.filter_captions(records, lex)
    textutil.write_jsonl(args.output, (captions.caption_to_dict(r) for r in kept))
    return 0


def _cmd_stub_gen(args) -> int:
    probabilities = _per_kind("--p", args.p)
    # the config checks the probabilities, tau and the scene size before any plane is allocated
    try:
        cfg = stub.StubGeneratorConfig(probabilities=probabilities, seed=args.seed,
                                       width=args.width, height=args.height, tau=args.tau)
    except ValueError as exc:  # "width must be ...": the flag's name without its dashes
        raise SpatialBenchError(f"--{exc}") from None
    lines = _read_lines(args.prompts)
    specs = []
    with _prompt_file(args.prompts):
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                specs.append(prompts.parse_prompt(line))
            except ParseError as exc:
                raise FormatError(f"prompt does not parse: {exc}", line=line_no) from None
    records, plans = stub.stub_generate(specs, cfg)
    textutil.write_jsonl(args.output, sceneio.eval_record_lines(records))
    if args.plans is not None:
        textutil.write_jsonl(args.plans, (
            {"id": plan.record_id, "verdicts": list(plan.verdicts)} for plan in plans
        ))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpatialBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
