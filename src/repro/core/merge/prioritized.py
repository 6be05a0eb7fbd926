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
from .tree import TreeNode, build_search_tree, iter_nodes, leaves


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
class _LeafCounter:
    """Per-node count of unrun leaves beneath it, kept in sync with a run set.

    Replaces the recursive subtree rescan the picker used to do on every
    descent step (which made a full search O(leaves²)): a node is "open"
    iff its count is positive, and marking a leaf run decrements exactly
    the counts along that leaf's ancestry — so a pick costs
    O(depth × branching). Built lazily for whatever run set the caller
    passes; :class:`RunSet` keeps it current in O(depth) per ``add``.

    The counter assumes the tree's *shape* is fixed (pruning happens
    before searching, as every caller does); scores may change freely.
    """

    def __init__(self, root: TreeNode, run) -> None:
        self.counts: dict[int, int] = {}
        self.ancestry: dict[int, tuple[int, ...]] = {}
        self.seen: set[int] = set()
        #: True when a RunSet owns this counter: only that set's ``add``
        #: may advance it, so a picker called with some *other* run set
        #: must build its own instead of corrupting the owner's counts.
        self.owned = False
        self._build(root)
        for leaf_id in run:
            self.mark_run(leaf_id)

    def _build(self, root: TreeNode) -> None:
        path: list[int] = []

        def visit(node: TreeNode) -> int:
            path.append(id(node))
            if node.is_leaf:
                count = 1
                self.ancestry[id(node)] = tuple(path)
            else:
                count = sum(visit(child) for child in node.children)
            self.counts[id(node)] = count
            path.pop()
            return count

        visit(root)

    def mark_run(self, leaf_id: int) -> None:
        if leaf_id in self.seen:
            return
        self.seen.add(leaf_id)
        for node_id in self.ancestry.get(leaf_id, ()):
            self.counts[node_id] -= 1

    def has_unrun(self, node: TreeNode) -> bool:
        return self.counts[id(node)] > 0


class RunSet(set):
    """A run set bound to its tree: ``add`` updates the unrun-leaf counts.

    :func:`run_ordered_search` and the simulator use this so every pick is
    O(depth × branching) with no per-pick synchronization; plain sets keep
    working for external callers (the counter syncs by set difference).
    """

    def __init__(self, root: TreeNode) -> None:
        super().__init__()
        self.root = root
        self.counter = _LeafCounter(root, ())
        self.counter.owned = True
        root._leaf_counter = self.counter

    def add(self, leaf_id: int) -> None:
        if leaf_id not in self:
            super().add(leaf_id)
            self.counter.mark_run(leaf_id)

    def update(self, *others) -> None:
        for other in others:
            for leaf_id in other:
                self.add(leaf_id)

    def __ior__(self, other):
        self.update(other)
        return self

    def _no_removal(self, *args, **kwargs):
        # A run set only grows: counters are decrement-only, so removal
        # would silently desynchronize them — fail loudly instead.
        raise TypeError("RunSet does not support removing run leaves")

    remove = discard = pop = clear = _no_removal
    difference_update = intersection_update = symmetric_difference_update = (
        _no_removal
    )
    __isub__ = __iand__ = __ixor__ = _no_removal


def _counter_for(root: TreeNode, run) -> _LeafCounter:
    """The unrun-leaf counter for ``(root, run)``, reusing the cached one
    when ``run`` only grew since it was last synced (the picker's loop
    contract); anything else — a shrunk or replaced run set — rebuilds."""
    if isinstance(run, RunSet) and run.root is root:
        return run.counter
    counter = getattr(root, "_leaf_counter", None)
    if counter is None or counter.owned or not counter.seen <= run:
        counter = _LeafCounter(root, run)
        root._leaf_counter = counter
    elif len(run) > len(counter.seen):
        for leaf_id in run - counter.seen:
            counter.mark_run(leaf_id)
    return counter


def pick_prioritized_leaf(
    root: TreeNode, run: set[int], rng: np.random.Generator
) -> TreeNode | None:
    """Descend by highest score until an unrun leaf is reached.

    A child that has no score yet inherits its parent's current estimate
    (the mean of the scored siblings): never-explored subtrees compete on
    equal terms with the parent's average instead of being starved until
    everything scored is exhausted. Ties — which this rule deliberately
    creates between a subtree's best-known child and its unexplored
    siblings — break uniformly at random, which is what spreads the
    prioritized search's per-rank scores across trials (the variance the
    paper reports in Fig. 10).
    """
    counter = _counter_for(root, run)
    node = root
    while not node.is_leaf:
        open_children = [c for c in node.children if counter.has_unrun(c)]
        if not open_children:
            return None
        prior = node.score
        effective = [
            c.score if c.score is not None else prior for c in open_children
        ]
        if all(e is None for e in effective):
            node = open_children[int(rng.integers(len(open_children)))]
            continue
        known = [e for e in effective if e is not None]
        best = max(known)
        ties = [
            c
            for c, e in zip(open_children, effective)
            if e is not None and e == best
        ]
        if not ties:  # all open children unscored with no prior
            ties = open_children
        node = ties[int(rng.integers(len(ties)))]
    return node if id(node) not in run else None


def pick_random_leaf(
    root: TreeNode, run: set[int], rng: np.random.Generator
) -> TreeNode | None:
    candidates = [leaf for leaf in leaves(root) if id(leaf) not in run]
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


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
    its cost model — all over this one RNG stream, run set and tree. Not
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
        self._run = RunSet(root)
        #: leaves drawn so far; ``evaluations`` holds the committed ones
        self.drawn = 0
        self.evaluations: list[CandidateEvaluation] = []
        self._clock_start = time.perf_counter()

    def draw(self) -> TreeNode | None:
        """The next leaf to search, marked run — or ``None`` when the
        evaluation budget, the time budget (once anything committed) or
        the tree is exhausted."""
        if self.budget is not None and self.drawn >= self.budget:
            return None
        if (
            self.time_budget_seconds is not None
            and self.evaluations
            and time.perf_counter() - self._clock_start >= self.time_budget_seconds
        ):
            return None
        leaf = self._picker(self.root, self._run, self._rng)
        if leaf is not None:
            self._run.add(id(leaf))
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
        # A node is its path from the root: the same component under a
        # different upstream prefix is a different execution.
        executed = {
            path_key_of(node)
            for node in iter_nodes(root)
            if not node.is_root and node.executed
        }
        result = TrialResult()
        clock = 0.0
        while (leaf := step.draw()) is not None:
            cost = 0.0
            for node in leaf.path_from_root():
                key = path_key_of(node)
                if key not in executed:
                    cost += self.component_costs.get(node.identifier, 0.0)
                    executed.add(key)
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
