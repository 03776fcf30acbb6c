"""Automated pipelines of A/B tests with ML-driven population splits.

The package provides the pipeline algebra and blueprint format
(:mod:`abpipe.model`, :mod:`abpipe.blueprints`), streaming statistics
(:mod:`abpipe.stats`), the split classifier (:mod:`abpipe.classifier`),
a deterministic simulated web-store (:mod:`abpipe.webstore`), the
feedback-loop engine (:mod:`abpipe.orchestrator`), and the comparison
reporting plus CLI on top.
"""

from .blueprints import parse_blueprints, serialize_blueprints
from .model import (
    ABTestSpec,
    ClassCondition,
    Hypothesis,
    PipelineSpec,
    PopulationSplitSpec,
    SplitComponent,
    SubPipeline,
    TransitionRule,
    transition_graph,
    validate,
)
from .orchestrator import PipelineEngine, WebStoreRunner, execute_pipeline, rule_applies
from .report import compare_pipelines, run_pipeline_once
from .stats import (
    MetricAccumulator,
    SequentialMonitor,
    StatResult,
    sequential_monitor,
    two_proportion_test,
    welch_t_test,
)
from .webstore import ScenarioConfig, WebStore, generate_population

__version__ = "0.1.0"

__all__ = [
    "ABTestSpec",
    "ClassCondition",
    "Hypothesis",
    "MetricAccumulator",
    "PipelineEngine",
    "PipelineSpec",
    "PopulationSplitSpec",
    "ScenarioConfig",
    "SequentialMonitor",
    "SplitComponent",
    "StatResult",
    "SubPipeline",
    "TransitionRule",
    "WebStore",
    "WebStoreRunner",
    "compare_pipelines",
    "execute_pipeline",
    "generate_population",
    "parse_blueprints",
    "rule_applies",
    "run_pipeline_once",
    "sequential_monitor",
    "serialize_blueprints",
    "transition_graph",
    "two_proportion_test",
    "validate",
    "welch_t_test",
]
