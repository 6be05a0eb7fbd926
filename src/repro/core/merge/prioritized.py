"""Prioritized pipeline search (paper section VII-E).

"Every time a pipeline candidate is run, the corresponding leaf node on
the pipeline search tree is associated with its score. We associate the
other nodes ... with scores as well, following the rule that the score of
the parent node is computed using the average of its children (except for
the children that have not gotten a score yet). The initial scores are
assigned using scores of the trained pipelines on MERGE_HEAD and HEAD.

... To perform a prioritized pipeline search, we start from the root node
and sequentially pick the child nodes that have the highest scores until
we reach a leaf node that has not been run yet."

That state lives on the tree's nodes: ``TreeNode.score`` and
``TreeNode.unrun``, the number of leaves beneath a node not drawn yet —
a child is worth descending into while its count is positive, and
drawing a leaf decrements the counts along its ancestry, so a pick costs
O(depth × branching). :class:`SearchStep` is the one place that sets and
advances both; the pickers only read them.

The module provides both the *live* search (executing real pipelines, with
an optional evaluation budget — the paper's limited-time-budget setting)
and a *simulator* that replays searches over known candidate scores and
component costs, which is how the 100-trial experiments of Fig. 10 and
Table I are produced without re-training 100x.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..context import ExecutionContext
from ..executor import Executor, RunReport
from .search_space import MergeScope
from .traversal import (
    CandidateEvaluation,
    apply_candidate_result,
    evaluation_of,
    path_key_of,
    run_candidate,
)
from .tree import TreeNode, build_search_tree, leaves


# ----------------------------------------------------------- score updates
def refresh_scores(root: TreeNode) -> None:
    """Bottom-up recompute: parent = mean of its *scored* children."""

    def visit(node: TreeNode) -> None:
        if node.is_leaf:
            return
        for child in node.children:
            visit(child)
        scored = [c.score for c in node.children if c.score is not None]
        if scored:
            node.score = float(np.mean(scored))

    visit(root)


def propagate_leaf_score(leaf: TreeNode) -> None:
    """Cheaper incremental update along one leaf's ancestry."""
    node = leaf.parent
    while node is not None and not node.is_root:
        scored = [c.score for c in node.children if c.score is not None]
        node.score = float(np.mean(scored)) if scored else None
        node = node.parent


# ------------------------------------------------------------- leaf picking
def pick_prioritized_leaf(root: TreeNode, rng: np.random.Generator) -> TreeNode | None:
    """Descend by highest score until an undrawn leaf is reached.

    Only children with an undrawn leaf beneath them (``unrun > 0``)
    compete. A child that has no score yet inherits its parent's current
    estimate (the mean of the scored siblings): never-explored subtrees
    compete on equal terms with the parent's average instead of being
    starved until everything scored is exhausted. Ties — which this rule
    deliberately creates between a subtree's best-known child and its
    unexplored siblings — break uniformly at random, which is what
    spreads the prioritized search's per-rank scores across trials (the
    variance the paper reports in Fig. 10). With no estimate at all — or
    none equal to the best, as when a NaN score makes ``max`` NaN — the
    pick is uniform over the open children.

    ``unrun`` is set by :class:`SearchStep`; on a tree no step has
    prepared, every count is 0 and the pick is ``None``.
    """
    if not root.unrun:
        return None
    node = root
    while not node.is_leaf:
        candidates = [c for c in node.children if c.unrun]
        prior = node.score
        effective = [c.score if c.score is not None else prior for c in candidates]
        known = [e for e in effective if e is not None]
        if known:
            best = max(known)
            ties = [c for c, e in zip(candidates, effective) if e == best]
            candidates = ties or candidates
        node = candidates[int(rng.integers(len(candidates)))]
    return node


def pick_random_leaf(root: TreeNode, rng: np.random.Generator) -> TreeNode | None:
    """A uniform pick among the undrawn leaves (``unrun`` as
    :class:`SearchStep` sets it)."""
    candidates = [leaf for leaf in leaves(root) if leaf.unrun]
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


def _count_unrun(node: TreeNode) -> int:
    """Set ``unrun`` bottom-up: every leaf is undrawn; the virtual root
    of a tree pruned empty is no candidate."""
    if node.is_leaf:
        node.unrun = 0 if node.is_root else 1
    else:
        node.unrun = sum(_count_unrun(child) for child in node.children)
    return node.unrun


# --------------------------------------------------------- the search step
_PICKERS = {"prioritized": pick_prioritized_leaf, "random": pick_random_leaf}


def scored_from_history(leaf: TreeNode) -> bool:
    """A trained pipeline of the commit history (a green leaf of Fig. 4):
    its score is known, so a live search counts it as searched without
    executing anything."""
    return leaf.score is not None and leaf.executed


class SearchStep:
    """The draw and the commit of an ordered search, defined once.

    :func:`search_window` — the loop of every live search, one draw in
    flight or several — keeps a window of draws uncommitted and commits
    in draw order, and :class:`SearchSimulator` replaces execution with
    its cost model — all over this one RNG stream and tree. The search
    state lives on the tree's nodes (``score``, ``unrun``), so the tree's
    shape must not change once the step is built: prune before. Not
    thread-safe: one thread draws and commits.
    """

    def __init__(
        self,
        root: TreeNode,
        method: str,
        seed: int,
        budget: int | None = None,
        time_budget_seconds: float | None = None,
    ) -> None:
        if method not in _PICKERS:
            raise ValueError(f"unknown search method {method!r}")
        if time_budget_seconds is not None and time_budget_seconds < 0:
            raise ValueError("time_budget_seconds must be non-negative")
        self.root = root
        self.budget = budget
        self.time_budget_seconds = time_budget_seconds
        self._picker = _PICKERS[method]
        self._propagate = method == "prioritized"
        self._rng = np.random.default_rng(seed)
        refresh_scores(root)
        _count_unrun(root)
        #: leaves drawn so far; ``evaluations`` holds the committed ones
        self.drawn = 0
        self.evaluations: list[CandidateEvaluation] = []
        self._clock_start = time.perf_counter()

    def draw(self) -> TreeNode | None:
        """The next leaf to search, marked drawn (``unrun`` decremented
        on it and every ancestor) — or ``None`` when the evaluation
        budget, the time budget (once anything committed) or the tree is
        exhausted."""
        if self.budget is not None and self.drawn >= self.budget:
            return None
        if (
            self.time_budget_seconds is not None
            and self.evaluations
            and time.perf_counter() - self._clock_start >= self.time_budget_seconds
        ):
            return None
        leaf = self._picker(self.root, self._rng)
        if leaf is not None:
            node: TreeNode | None = leaf
            while node is not None:
                node.unrun -= 1
                node = node.parent
            self.drawn += 1
        return leaf

    def settle(self, leaf: TreeNode, score: float | None) -> None:
        """Give a searched leaf its score (``None``: the candidate
        failed) and let it inform later prioritized draws."""
        leaf.score = score
        if self._propagate:
            propagate_leaf_score(leaf)

    def commit(self, leaf: TreeNode, report: RunReport | None) -> None:
        """Record a drawn leaf's outcome: push a run's execution state
        onto the tree and settle its score; ``report=None`` for a leaf
        :func:`scored_from_history`, which changes nothing on the tree."""
        evaluation = evaluation_of(
            leaf, report, len(self.evaluations), time.perf_counter() - self._clock_start
        )
        if report is not None:
            apply_candidate_result(leaf, report)
            self.settle(leaf, evaluation.score)
        self.evaluations.append(evaluation)


# ------------------------------------------------------------- live search
def _inline(evaluate, leaf: TreeNode, index: int) -> Future:
    """The width-1 ``submit``: evaluate now, on the calling thread."""
    future: Future = Future()
    future.set_result(evaluate(leaf, index))
    return future


def search_window(
    step: SearchStep, evaluate, width: int = 1, submit=_inline
) -> list[CandidateEvaluation]:
    """The draw/submit/commit loop of every live search.

    The calling thread owns ``step``. It draws while fewer than
    ``width`` draws are uncommitted, hands each drawn leaf to
    ``submit(evaluate, leaf, draw_index) -> Future`` (a leaf
    :func:`scored_from_history` takes its slot with nothing to wait
    for), and commits the oldest slot once the window is full or drawing
    has stopped. Commits are therefore in draw order and the picker's
    view at draw ``j`` is exactly results ``0 .. j - width`` — whatever
    ``submit`` does with threads. ``evaluate(leaf, draw_index)`` returns
    the candidate's :class:`RunReport`; what it raises re-raises here, no
    later than that candidate's commit, and nothing drawn after it is
    committed.
    """
    window: deque[tuple[TreeNode, Future | None]] = deque()
    drawing = True
    while drawing or window:
        while drawing and len(window) < width:
            leaf = step.draw()
            if leaf is None:
                drawing = False
            elif scored_from_history(leaf):
                window.append((leaf, None))
            else:
                window.append((leaf, submit(evaluate, leaf, step.drawn - 1)))
        if window:
            leaf, future = window.popleft()
            step.commit(leaf, future.result() if future is not None else None)
    return step.evaluations


def run_ordered_search(
    root: TreeNode,
    scope: MergeScope,
    executor: Executor,
    context: ExecutionContext,
    method: str = "prioritized",
    budget: int | None = None,
    time_budget_seconds: float | None = None,
    seed: int = 0,
) -> list[CandidateEvaluation]:
    """Execute candidates in prioritized or random order, one at a time.

    ``budget`` caps the number of candidate evaluations and
    ``time_budget_seconds`` stops starting new evaluations once the wall
    clock is exhausted — the paper's fixed-time-budget trade-off ("the
    prioritized pipeline search only searches the most promising pipelines
    according to the history"). Already-trained candidates (history-scored
    leaves) count as searched without re-execution, exactly like the
    checkpointed nodes of Fig. 4.
    """
    step = SearchStep(root, method, seed, budget, time_budget_seconds)
    return search_window(
        step, lambda leaf, _index: run_candidate(leaf, scope, executor, context)
    )


# --------------------------------------------------------------- simulator
@dataclass
class SimulatedStep:
    """One search step of one simulated trial."""

    rank: int
    path_key: str
    end_time: float
    score: float


@dataclass
class TrialResult:
    steps: list[SimulatedStep] = field(default_factory=list)

    def position_of(self, path_key: str) -> int | None:
        for step in self.steps:
            if step.path_key == path_key:
                return step.rank
        return None


class SearchSimulator:
    """Replay prioritized/random searches over known scores and costs.

    The simulator follows the PR-reuse cost model: evaluating a candidate
    costs the sum of its *not-yet-executed* component costs within the
    trial (components shared with earlier candidates are free), exactly
    like the real merge's checkpoint reuse. History-trained leaves start
    pre-executed and pre-scored (the green nodes of Fig. 4).
    """

    def __init__(
        self,
        scope: MergeScope,
        leaf_scores: dict[str, float],
        component_costs: dict[str, float],
        mark_history: bool = True,
        prune=None,
    ):
        self.scope = scope
        self.leaf_scores = dict(leaf_scores)
        self.component_costs = dict(component_costs)
        self.mark_history = mark_history
        self.prune = prune  # callable(root) applied after tree build

    def _fresh_tree(self) -> TreeNode:
        from .pruning import mark_checkpointed_nodes

        root = build_search_tree(self.scope)
        if self.prune is not None:
            self.prune(root)
        if self.mark_history:
            mark_checkpointed_nodes(root, self.scope)
        return root

    def run_trial(self, method: str, seed: int) -> TrialResult:
        root = self._fresh_tree()
        step = SearchStep(root, method, seed)
        result = TrialResult()
        clock = 0.0
        while (leaf := step.draw()) is not None:
            # A node is its path from the root: the same component under
            # a different upstream prefix is a different execution.
            cost = 0.0
            for node in leaf.path_from_root():
                if not node.executed:
                    cost += self.component_costs.get(node.identifier, 0.0)
                    node.executed = True
            clock += cost
            path_key = path_key_of(leaf)
            score = self.leaf_scores.get(path_key, 0.0)
            step.settle(leaf, score)
            result.steps.append(
                SimulatedStep(
                    rank=len(result.steps), path_key=path_key, end_time=clock, score=score
                )
            )
        return result

    def run_trials(self, method: str, n_trials: int, seed: int = 0) -> list[TrialResult]:
        return [self.run_trial(method, seed * 100_003 + t) for t in range(n_trials)]
