"""Algorithm 2: depth-first traversal and execution of the search tree.

The traversal walks the tree depth-first and executes a full candidate
whenever it reaches a leaf (line 15). The incompatible children that
lines 5-7 of the paper's pseudo-code remove during the walk are removed
before it instead, by :func:`~.compatibility.prune_incompatible` (which
also drops the dead ends they would leave). After execution,
every node on the walking path is marked executed with its output
reference recorded (lines 16-19); because the executor consults the
checkpoint store, components whose (version, input) pair already ran are
skipped — "MLCask can leverage node.executed property to skip certain
components."

Depth-first order matters: "it guarantees that once a node's corresponding
component is being executed, its parent node's corresponding component
must have been executed as well" (section VI-B).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..context import ExecutionContext
from ..executor import Executor, RunReport
from ..pipeline import PipelineInstance
from .search_space import MergeScope
from .tree import TreeNode, candidate_components, leaves


@dataclass
class CandidateEvaluation:
    """One executed pre-merge pipeline candidate."""

    index: int
    path_key: str
    components: dict = field(default_factory=dict)
    report: RunReport | None = None
    score: float | None = None
    elapsed_seconds: float = 0.0  # merge clock when this candidate finished

    @property
    def failed(self) -> bool:
        return self.report is None or self.report.failed


def path_key_of(leaf: TreeNode) -> str:
    return "/".join(node.identifier for node in leaf.path_from_root())


def evaluation_of(
    leaf: TreeNode, report: RunReport | None, index: int, elapsed_seconds: float
) -> CandidateEvaluation:
    """The record of one searched candidate — every search builds its
    records here. ``report is None`` means the leaf was scored from the
    commit history (a trained pipeline of Fig. 4): nothing was executed."""
    if report is None:
        score = leaf.score
    else:
        score = None if report.failed else report.score
    return CandidateEvaluation(
        index=index,
        path_key=path_key_of(leaf),
        components=candidate_components(leaf),
        report=report,
        score=score,
        elapsed_seconds=elapsed_seconds,
    )


def run_candidate(
    leaf: TreeNode,
    scope: MergeScope,
    executor: Executor,
    context: ExecutionContext,
) -> RunReport:
    """Run a leaf's walking path as a pipeline instance — the execution
    half of ``executeNodeList``, free of tree mutation: an ordered search
    evaluates a leaf when it draws it and commits the tree state later,
    in draw order, by :func:`apply_candidate_result`."""
    components = candidate_components(leaf)
    instance = PipelineInstance(spec=scope.spec, components=components)
    return executor.run(instance, context)


def apply_candidate_result(leaf: TreeNode, report: RunReport) -> None:
    """Push one run's execution state back onto the tree nodes (lines
    16-19 of Algorithm 2): the exhaustive walk's loop body, or an ordered
    search's commit."""
    if report.failed:
        return
    for node in leaf.path_from_root():
        node.executed = True
        stage_report = report.stage(node.stage)
        if stage_report.output_ref:
            node.output_ref = stage_report.output_ref
    leaf.score = report.score


def execute_candidate(
    leaf: TreeNode,
    scope: MergeScope,
    executor: Executor,
    context: ExecutionContext,
) -> RunReport:
    """``executeNodeList``: run the walking path as a pipeline instance and
    push execution state back onto the tree nodes."""
    report = run_candidate(leaf, scope, executor, context)
    apply_candidate_result(leaf, report)
    return report


def execute_tree(
    root: TreeNode,
    scope: MergeScope,
    executor: Executor,
    context: ExecutionContext,
) -> list[CandidateEvaluation]:
    """Run every candidate in depth-first order (Algorithm 2).

    PC pruning happens beforehand (:func:`prune_incompatible`, or not at
    all for the no-pruning ablation): the walk executes every leaf of the
    tree it is given.
    """
    evaluations: list[CandidateEvaluation] = []
    clock_start = time.perf_counter()
    for leaf in leaves(root):
        report = execute_candidate(leaf, scope, executor, context)
        evaluations.append(
            evaluation_of(
                leaf, report, len(evaluations), time.perf_counter() - clock_start
            )
        )
    return evaluations
