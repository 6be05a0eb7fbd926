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
advances both; the pickers (prioritized, random, and Algorithm 2's
depth-first :func:`~.traversal.pick_first_leaf`) only read them.

One loop, :func:`search_window`, runs every search, given an evaluator
and the step's clock: a live merge runs pipelines on the wall clock;
:class:`SearchSimulator` replays known candidate scores and component
costs on a simulated clock, which is how the 100-trial experiments of
Fig. 10 and Table I are produced without re-training 100x.
"""

from __future__ import annotations

import time
from collections import deque
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
    pick_first_leaf,
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
_PICKERS = {
    "exhaustive": pick_first_leaf,
    "prioritized": pick_prioritized_leaf,
    "random": pick_random_leaf,
}


def check_search_bounds(
    workers: int = 1, time_budget_seconds: float | None = None
) -> None:
    """Refuse a draw window or a time budget no search can honour, with
    a ``ValueError`` naming the argument, before anything is drawn.
    ``not >= 0`` also refuses a NaN time budget, which no clock reading
    ever reaches."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if time_budget_seconds is not None and not time_budget_seconds >= 0:
        raise ValueError(
            f"time_budget_seconds must be non-negative, got {time_budget_seconds}"
        )


def scored_from_history(leaf: TreeNode) -> bool:
    """A trained pipeline of the commit history (a green leaf of Fig. 4):
    its score is known."""
    return leaf.score is not None and leaf.executed


class SearchStep:
    """The draw and the commit of a search, defined once.

    :func:`search_window` — the loop of every search, live or simulated
    — keeps a window of draws uncommitted and commits in draw order, all
    over this one RNG stream and tree. The search state lives on the
    tree's nodes (``score``, ``unrun``), so the tree's shape must not
    change once the step is built: prune before. ``clock`` times each
    evaluation and the time budget. Not thread-safe: one thread draws
    and commits.
    """

    def __init__(
        self,
        root: TreeNode,
        method: str,
        seed: int,
        budget: int | None = None,
        time_budget_seconds: float | None = None,
        clock=time.perf_counter,
    ) -> None:
        if method not in _PICKERS:
            raise ValueError(f"unknown search method {method!r}")
        check_search_bounds(time_budget_seconds=time_budget_seconds)
        self.root = root
        self.budget = budget
        self.time_budget_seconds = time_budget_seconds
        self._picker = _PICKERS[method]
        self._propagate = method == "prioritized"
        self._runs_history = method == "exhaustive"
        self._rng = np.random.default_rng(seed)
        refresh_scores(root)
        _count_unrun(root)
        #: leaves drawn so far; ``evaluations`` holds the committed ones
        self.drawn = 0
        self.evaluations: list[CandidateEvaluation] = []
        self._clock = clock
        self._clock_start = clock()

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
            and self._clock() - self._clock_start >= self.time_budget_seconds
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

    def runs(self, leaf: TreeNode) -> bool:
        """Whether the search evaluates ``leaf``: the exhaustive walk runs
        a history-trained leaf too (checkpoint hits, which Fig. 9
        counts); the ordered searches commit it unrun, at its score."""
        return self._runs_history or not scored_from_history(leaf)

    def settle(self, leaf: TreeNode, score: float | None) -> None:
        """Give a searched leaf its score (``None``: the candidate
        failed) and let it inform later prioritized draws."""
        leaf.score = score
        if self._propagate:
            propagate_leaf_score(leaf)

    def commit(self, leaf: TreeNode, outcome: RunReport | float | None) -> None:
        """Record a drawn leaf's outcome and settle its score. A live
        run's :class:`RunReport` also pushes its execution state onto
        the tree; a bare score (``None``: failed) is a simulated run's,
        or the history score of a leaf the step does not run."""
        report: RunReport | None = None
        if isinstance(outcome, RunReport):
            report, outcome = outcome, (None if outcome.failed else outcome.score)
            apply_candidate_result(leaf, report)
        self.settle(leaf, outcome)
        self.evaluations.append(
            evaluation_of(
                leaf, report, len(self.evaluations), self._clock() - self._clock_start
            )
        )


# ------------------------------------------------------------- the loop
def search_window(step: SearchStep, evaluate, width: int = 1) -> list[CandidateEvaluation]:
    """The draw/evaluate/commit loop of every search over a merge tree.

    The calling thread owns ``step`` and runs every candidate. It draws
    while fewer than ``width`` draws are uncommitted, evaluates each
    drawn leaf the step :meth:`~SearchStep.runs` at once
    (``evaluate(leaf, draw_index)`` returns its :class:`RunReport`, or a
    simulated score), gives any other leaf its slot at its history
    score, and commits the oldest slot once the window is full or
    drawing has stopped. Commits are therefore in draw order and the
    picker's view at draw ``j`` is exactly results ``0 .. j - width``.
    What ``evaluate`` raises re-raises here, and nothing drawn after
    that candidate is committed.
    """
    check_search_bounds(workers=width)
    window: deque[tuple[TreeNode, RunReport | float | None]] = deque()
    drawing = True
    while drawing or window:
        while drawing and len(window) < width:
            leaf = step.draw()
            if leaf is None:
                drawing = False
            elif step.runs(leaf):
                window.append((leaf, evaluate(leaf, step.drawn - 1)))
            else:
                window.append((leaf, leaf.score))
        if window:
            step.commit(*window.popleft())
    return step.evaluations


def run_ordered_search(
    root: TreeNode,
    scope: MergeScope,
    executor: Executor,
    context: ExecutionContext,
    method: str = "prioritized",
    workers: int = 1,
    budget: int | None = None,
    time_budget_seconds: float | None = None,
    seed: int = 0,
) -> list[CandidateEvaluation]:
    """Execute candidates in depth-first (``"exhaustive"``), prioritized
    or random order, one at a time.

    ``workers`` is the width ``W`` of the draw window: draw ``j`` sees
    the results of draws ``0 .. j - W`` (``W = 1``: every earlier one).
    The search is a function of ``(method, seed, workers)``.
    ``budget`` caps the number of candidate evaluations and
    ``time_budget_seconds`` stops starting new evaluations once the wall
    clock is exhausted — the paper's fixed-time-budget trade-off ("the
    prioritized pipeline search only searches the most promising pipelines
    according to the history"). Already-trained candidates (history-scored
    leaves) count as searched without re-execution, exactly like the
    checkpointed nodes of Fig. 4; the exhaustive walk runs them.
    """
    step = SearchStep(root, method, seed, budget, time_budget_seconds)

    def evaluate(leaf: TreeNode, index: int) -> RunReport:
        return run_candidate(leaf, scope, executor, context)

    return search_window(step, evaluate, workers)


# --------------------------------------------------------------- simulator
@dataclass
class SimulatedStep:
    """One search step of one simulated trial (``score`` ``None``: failed)."""

    rank: int
    path_key: str
    end_time: float
    score: float | None


@dataclass
class TrialResult:
    steps: list[SimulatedStep] = field(default_factory=list)

    def position_of(self, path_key: str) -> int | None:
        for step in self.steps:
            if step.path_key == path_key:
                return step.rank
        return None


class SearchSimulator:
    """Replay searches over known scores and costs: an evaluator and a
    simulated clock for :func:`search_window`, so a simulated search
    honours the budgets of a :class:`SearchStep` as a live one does.

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
        #: simulated seconds spent in the current trial
        self.elapsed = 0.0

    def clock(self) -> float:
        return self.elapsed

    def fresh_tree(self) -> TreeNode:
        """A new trial's tree, pruned and history-marked; the clock at 0."""
        from .pruning import mark_checkpointed_nodes

        root = build_search_tree(self.scope)
        if self.prune is not None:
            self.prune(root)
        if self.mark_history:
            mark_checkpointed_nodes(root, self.scope)
        self.elapsed = 0.0
        return root

    def evaluate(self, leaf: TreeNode, index: int) -> float | None:
        """Charge the leaf's unexecuted path nodes to the clock, mark them
        executed, and return its recorded score (``None``: failed)."""
        # A node is its path from the root: the same component under
        # a different upstream prefix is a different execution.
        cost = 0.0
        for node in leaf.path_from_root():
            if not node.executed:
                cost += self.component_costs.get(node.identifier, 0.0)
                node.executed = True
        self.elapsed += cost
        return self.leaf_scores.get(path_key_of(leaf))

    def run_trial(self, method: str, seed: int) -> TrialResult:
        step = SearchStep(self.fresh_tree(), method, seed, clock=self.clock)
        return TrialResult([
            SimulatedStep(e.index, e.path_key, e.elapsed_seconds, e.score)
            for e in search_window(step, self.evaluate)
        ])

    def run_trials(self, method: str, n_trials: int, seed: int = 0) -> list[TrialResult]:
        return [self.run_trial(method, seed * 100_003 + t) for t in range(n_trials)]
