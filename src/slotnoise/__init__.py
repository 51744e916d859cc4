"""Robustness evaluation harness for slot filling under input perturbations."""

from .client import ModelConfig, ResponseCache, cached_complete, complete
from .corpus import (
    Dataset,
    LabeledExample,
    LabelSet,
    SlotSpan,
    bio_to_spans,
    load_dataset,
    save_dataset,
    spans_to_bio,
)
from .demos import (
    DemonstrationSet,
    PoolIndex,
    build_entity_demos,
    build_instance_demos,
    embed,
    rank_by_similarity,
)
from .harness import (
    RunConfig,
    compare_templates,
    render_report,
    run_experiment,
    sweep_demo_count,
)
from .parser import Prediction, parse_predictions
from .perturb import (
    PerturbationReport,
    PerturbationSpec,
    apply_perturbation,
    compose,
    perturb_dataset,
)
from .pools import DataPool, build_pool
from .prompts import PromptTemplate, bundled_registry, render_prompt
from .scorer import EvalResult, aggregate, score_example

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DataPool",
    "DemonstrationSet",
    "EvalResult",
    "LabelSet",
    "LabeledExample",
    "ModelConfig",
    "Prediction",
    "PerturbationReport",
    "PerturbationSpec",
    "PoolIndex",
    "PromptTemplate",
    "ResponseCache",
    "RunConfig",
    "SlotSpan",
    "aggregate",
    "apply_perturbation",
    "bio_to_spans",
    "build_entity_demos",
    "build_instance_demos",
    "build_pool",
    "bundled_registry",
    "cached_complete",
    "compare_templates",
    "complete",
    "compose",
    "embed",
    "load_dataset",
    "parse_predictions",
    "perturb_dataset",
    "rank_by_similarity",
    "render_prompt",
    "render_report",
    "run_experiment",
    "save_dataset",
    "score_example",
    "spans_to_bio",
    "sweep_demo_count",
]
