"""Algorithm 2: depth-first traversal and execution of the search tree.

The traversal visits the leaves depth-first and executes a full
candidate at each (line 15): the picker :func:`pick_first_leaf`, run
under ``search="exhaustive"`` by the one search loop,
:func:`~.prioritized.search_window`. The incompatible children that
lines 5-7 of the paper's pseudo-code remove during the walk are removed
before it instead, by :func:`~.compatibility.prune_incompatible` (which
also drops the dead ends they would leave). After execution, every node
on the walking path is marked executed with its output reference
recorded (lines 16-19); because the executor consults the checkpoint
store, components whose (version, input) pair already ran are skipped —
"MLCask can leverage node.executed property to skip certain
components." A leaf trained in the history runs too, all checkpoint
hits.

Depth-first order matters: "it guarantees that once a node's corresponding
component is being executed, its parent node's corresponding component
must have been executed as well" (section VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..context import ExecutionContext
from ..executor import Executor, RunReport
from ..pipeline import PipelineInstance
from .search_space import MergeScope
from .tree import TreeNode, candidate_components


@dataclass
class CandidateEvaluation:
    """One searched pre-merge pipeline candidate."""

    index: int
    path_key: str
    components: dict = field(default_factory=dict)
    report: RunReport | None = None
    score: float | None = None
    elapsed_seconds: float = 0.0  # the search's clock when this candidate committed

    @property
    def failed(self) -> bool:
        return self.report is None or self.report.failed


def path_key_of(leaf: TreeNode) -> str:
    return "/".join(node.identifier for node in leaf.path_from_root())


def evaluation_of(
    leaf: TreeNode, report: RunReport | None, index: int, elapsed_seconds: float
) -> CandidateEvaluation:
    """The record of one searched candidate — every search builds its
    records here. ``report is None`` means nothing was executed: the
    leaf's score came from the commit history (a trained pipeline of
    Fig. 4) or from the simulator."""
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


def pick_first_leaf(root: TreeNode, rng) -> TreeNode | None:
    """The leftmost leaf not drawn yet (``unrun`` as
    :class:`~.prioritized.SearchStep` sets it); ``rng`` is unused."""
    if not root.unrun:
        return None
    node = root
    while not node.is_leaf:
        node = next(child for child in node.children if child.unrun)
    return node


def run_candidate(
    leaf: TreeNode,
    scope: MergeScope,
    executor: Executor,
    context: ExecutionContext,
) -> RunReport:
    """Run a leaf's walking path as a pipeline instance — the execution
    half of ``executeNodeList``, free of tree mutation: a search
    evaluates a leaf when it draws it and commits the tree state later,
    in draw order, by :func:`apply_candidate_result`."""
    components = candidate_components(leaf)
    instance = PipelineInstance(spec=scope.spec, components=components)
    return executor.run(instance, context)


def apply_candidate_result(leaf: TreeNode, report: RunReport) -> None:
    """Push one run's execution state back onto the tree nodes (lines
    16-19 of Algorithm 2), at the search's commit."""
    if report.failed:
        return
    for node in leaf.path_from_root():
        node.executed = True
        stage_report = report.stage(node.stage)
        if stage_report.output_ref:
            node.output_ref = stage_report.output_ref
    leaf.score = report.score
