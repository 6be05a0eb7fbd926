"""Experiment drivers regenerating every table and figure of section VII."""

from .distributed import (
    DistributedExperimentResult,
    loss_decay_ordering,
    run_distributed_experiment,
)
from .linear import LinearExperimentResult, run_linear_experiment
from .measures import LinearSeries, MergeMeasures
from .merge import MODE_LABELS, MergeExperimentResult, run_merge_experiment
from .prioritized import (
    RankPoint,
    SearchExperimentResult,
    TABLE1_FRACTIONS,
    run_search_experiment,
)
from .report import format_series, format_table

__all__ = [
    "DistributedExperimentResult",
    "loss_decay_ordering",
    "run_distributed_experiment",
    "LinearExperimentResult",
    "run_linear_experiment",
    "LinearSeries",
    "MergeMeasures",
    "MODE_LABELS",
    "MergeExperimentResult",
    "run_merge_experiment",
    "RankPoint",
    "SearchExperimentResult",
    "TABLE1_FRACTIONS",
    "run_search_experiment",
    "format_series",
    "format_table",
]
