"""Spatial-relation extraction, prompt tooling, and benchmark evaluation.

The package turns labeled bounding boxes (plus optional depth) into spatial
relation facts, renders and parses spatially explicit prompts, rewrites
prompts onto a model's stronger relation sides, and scores generated scenes
against prompts with soft/strict accuracy and opposite-pair bias tables.
"""

from .errors import (
    DimensionMismatch,
    EmptyRegion,
    FormatError,
    InsufficientPool,
    MissingRelation,
    NoSamples,
    NotInvertible,
    ParseError,
    SpatialBenchError,
    UnknownKind,
)
from .evaluation import (
    BenchReport,
    ClauseVerdict,
    EvalRecord,
    evaluate_records,
    score_clause,
    score_record,
)
from .extraction import (
    DEFAULT_CONFIG,
    AmbiguityPolicy,
    DetectedObject,
    ExtractionConfig,
    RelationInstance,
    Scene,
    extract_scene,
)
from .geometry import (
    AxisDistances,
    BoundingBox,
    DepthMap,
    RelationKind,
    Strictness,
    average_depth,
    axis_distances,
    check_between,
    check_depth_overlap,
    check_depth_relation,
    check_directional,
    check_next,
    directional_distance,
    invert,
)
from .lexicon import default_contexts, default_objects
from .prompts import (
    PromptSpec,
    RelationQuadruple,
    parse_prompt,
    render_prompt,
    sample_prompt_set,
)
from .sceneio import (
    ObjectLexicon,
    filter_captions,
    load_captions,
    load_eval_records,
    load_scenes,
    read_depth,
    write_depth_pgm,
    write_jsonl,
)
from .stub import StubGeneratorConfig, StubPlan, stub_generate
from .tore import (
    BiasProfile,
    ToreConfig,
    builtin_profile,
    compute_bias_profile,
    load_bias_profile,
    transform_prompt,
    transform_spec,
)

__version__ = "0.1.0"
