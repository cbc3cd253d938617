"""Spatial-relation extraction, prompt tooling, and benchmark evaluation.

The package turns labeled bounding boxes (plus optional depth) into spatial
relation facts, renders and parses spatially explicit prompts, rewrites
prompts onto a model's stronger relation sides, and scores generated scenes
against prompts with soft/strict accuracy and opposite-pair bias tables.

The exported names resolve lazily (PEP 562): reading one imports only its
home module, so prompt-side code never loads the scoring modules through
this package.
"""

import importlib

__version__ = "0.1.0"

# home module of each exported name
_HOMES = {
    **dict.fromkeys((
        "DimensionMismatch",
        "EmptyRegion",
        "FormatError",
        "InsufficientPool",
        "MissingRelation",
        "NoSamples",
        "NotInvertible",
        "ParseError",
        "SpatialBenchError",
        "UnknownKind",
    ), "errors"),
    **dict.fromkeys((
        "BenchReport",
        "ClauseVerdict",
        "EvalRecord",
        "evaluate_records",
        "score_clause",
        "score_record",
    ), "evaluation"),
    **dict.fromkeys((
        "DEFAULT_CONFIG",
        "DetectedObject",
        "ExtractionConfig",
        "RelationInstance",
        "Scene",
        "extract_scene",
    ), "extraction"),
    **dict.fromkeys((
        "BoundingBox",
        "DepthMap",
        "average_depth",
        "check_between",
        "check_depth_overlap",
        "check_depth_relation",
        "check_directional",
        "check_next",
    ), "geometry"),
    **dict.fromkeys(("RelationKind", "Strictness", "invert"), "relations"),
    **dict.fromkeys(("default_contexts", "default_objects"), "lexicon"),
    **dict.fromkeys((
        "PromptSpec",
        "RelationQuadruple",
        "candidate_pool",
        "parse_prompt",
        "render_prompt",
        "sample_prompt_set",
    ), "prompts"),
    **dict.fromkeys(("ObjectLexicon", "filter_captions", "load_captions"), "captions"),
    **dict.fromkeys(("load_eval_records", "load_scenes", "read_depth", "write_depth_pgm"),
                    "sceneio"),
    **dict.fromkeys(("StubGeneratorConfig", "StubPlan", "stub_generate"), "stub"),
    **dict.fromkeys((
        "BiasProfile",
        "ToreConfig",
        "builtin_profile",
        "compute_bias_profile",
        "load_bias_profile",
        "transform_prompt",
        "transform_spec",
    ), "tore"),
    "write_jsonl": "textutil",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    # not cached in globals(): the home module's binding stays the only one,
    # so rebinding a name there is seen through the package as well
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
