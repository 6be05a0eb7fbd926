"""Metric-driven merge machinery: search spaces, trees, pruning, search."""

from .compatibility import (
    CompatibilityLUT,
    build_compatibility_lut,
    compatible_with_predecessors,
    prune_incompatible,
    schema_compatible,
)
from .metric_merge import (
    MERGE_MODES,
    SEARCH_METHODS,
    metric_driven_merge,
    winners_by_metric,
)
from .prioritized import (
    SearchSimulator,
    SimulatedStep,
    TrialResult,
    propagate_leaf_score,
    refresh_scores,
    run_ordered_search,
)
from .pruning import executed_leaf_scores, mark_checkpointed_nodes
from .search_space import MergeScope, branch_search_space, build_merge_scope
from .traversal import CandidateEvaluation, path_key_of, run_candidate
from .tree import (
    TreeNode,
    build_search_tree,
    candidate_components,
    count_candidates,
    count_feasible_components,
    iter_nodes,
    leaves,
    nodes_at_level,
)

__all__ = [
    "CompatibilityLUT", "build_compatibility_lut", "compatible_with_predecessors",
    "prune_incompatible",
    "schema_compatible",
    "MERGE_MODES", "SEARCH_METHODS", "metric_driven_merge", "winners_by_metric",
    "SearchSimulator", "SimulatedStep", "TrialResult",
    "propagate_leaf_score", "refresh_scores", "run_ordered_search",
    "executed_leaf_scores", "mark_checkpointed_nodes",
    "MergeScope", "branch_search_space", "build_merge_scope",
    "CandidateEvaluation", "path_key_of", "run_candidate",
    "TreeNode", "build_search_tree", "candidate_components", "count_candidates",
    "count_feasible_components", "iter_nodes", "leaves", "nodes_at_level",
]
