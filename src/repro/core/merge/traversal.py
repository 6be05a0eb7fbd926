"""Algorithm 2: depth-first traversal and execution of the search tree.

The traversal prunes incompatible children as it descends (lines 5-7 of
the paper's pseudo-code), pushes nodes onto the walking path, and executes
a full candidate whenever it reaches a leaf (line 15). After execution,
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
from .compatibility import CompatibilityLUT
from .search_space import MergeScope
from .tree import TreeNode, candidate_components


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
    half of ``executeNodeList``, free of tree mutation so parallel merge
    workers can call it concurrently (tree state is committed separately,
    in draw order, by :func:`apply_candidate_result`)."""
    components = candidate_components(leaf)
    instance = PipelineInstance(spec=scope.spec, components=components)
    return executor.run(instance, context)


def apply_candidate_result(leaf: TreeNode, report: RunReport) -> None:
    """Push one run's execution state back onto the tree nodes (lines
    16-19 of Algorithm 2). Must be called by one thread at a time — the
    sequential search's loop body, or the parallel driver's committer."""
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
    lut: CompatibilityLUT | None = None,
) -> list[CandidateEvaluation]:
    """Run every candidate in depth-first order (Algorithm 2).

    ``lut`` enables in-traversal PC pruning; pass ``None`` when the tree
    was pruned beforehand (or when reproducing the no-pruning ablation).
    """
    evaluations: list[CandidateEvaluation] = []
    clock_start = time.perf_counter()

    n_stages = len(scope.stage_order)
    binding: dict = {}  # stage -> component along the walking path

    def visit(node: TreeNode) -> None:
        if node.children:
            from .compatibility import compatible_with_predecessors

            kept: list[TreeNode] = []
            for child in node.children:
                if lut is not None and not compatible_with_predecessors(
                    binding, node, child, lut, scope.spec
                ):
                    continue  # line 7: node.children.remove(child)
                kept.append(child)
            node.children = kept
            for child in node.children:
                binding[child.stage] = child.component
                visit(child)
        elif not node.is_root:
            if len(node.path_from_root()) != n_stages:
                return  # dead-end left by in-traversal pruning: no candidate
            report = execute_candidate(node, scope, executor, context)
            evaluations.append(
                evaluation_of(
                    node, report, len(evaluations), time.perf_counter() - clock_start
                )
            )

    visit(root)
    return evaluations
