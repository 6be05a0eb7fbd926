"""Prioritized pipeline search tests (paper section VII-E)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.merge import (
    SearchSimulator,
    TreeNode,
    build_compatibility_lut,
    build_merge_scope,
    build_search_tree,
    iter_nodes,
    leaves,
    mark_checkpointed_nodes,
    propagate_leaf_score,
    prune_incompatible,
    refresh_scores,
    run_ordered_search,
)
from repro.core.merge.prioritized import SearchStep, pick_prioritized_leaf, pick_random_leaf
from repro.core.context import ExecutionContext
from repro.core.executor import Executor

from engine.reference import reference_pick_prioritized_leaf, reference_pick_random_leaf
from helpers import build_fig3_history


def prepared_tree(repo):
    head = repo.head_commit("toy", "master")
    merge_head = repo.head_commit("toy", "dev")
    scope = build_merge_scope(
        repo.graph, repo.registry, repo.spec("toy"), head, merge_head
    )
    root = build_search_tree(scope)
    prune_incompatible(root, build_compatibility_lut(scope))
    mark_checkpointed_nodes(root, scope)
    return scope, root


class TestScorePropagation:
    def test_parent_is_mean_of_scored_children(self):
        repo = build_fig3_history()
        _, root = prepared_tree(repo)
        refresh_scores(root)
        for node in [root] + [c for c in root.children]:
            pass  # structure walked below
        # find the extract-level node whose children carry history scores
        dataset_node = root.children[0]
        for clean_node in dataset_node.children:
            for extract_node in clean_node.children:
                scored = [c.score for c in extract_node.children if c.score is not None]
                if scored:
                    assert extract_node.score == pytest.approx(float(np.mean(scored)))

    def test_unscored_children_excluded(self):
        repo = build_fig3_history()
        _, root = prepared_tree(repo)
        refresh_scores(root)
        # history scores: 0.5, 0.55, 0.6, 0.8, 0.7 -> root mean over
        # scored internal children only, never dragged to 0 by unscored
        assert root.children[0].score is not None
        assert root.children[0].score > 0.4


class TestLeafPicking:
    def test_prioritized_follows_max_score_path(self):
        """The first pick must land under clean 0.1 (score 0.7), which
        beats clean 0.0 (0.6125, dragged down by the old models). Below
        that, unscored children inherit the parent's estimate and tie
        with the known 0.7 leaf, so any leaf of the clean-0.1 subtree is a
        valid first pick."""
        repo = build_fig3_history()
        _, root = prepared_tree(repo)
        leaf = SearchStep(root, "prioritized", 0).draw()
        path = [n.identifier for n in leaf.path_from_root()]
        assert path[1].endswith("0.1")  # clean 0.1 subtree, always

    def test_first_pick_never_enters_low_subtree(self):
        """Across many seeds, the first pick never lands under clean 0.0
        — its subtree score (0.6125) is strictly dominated."""
        for seed in range(20):
            repo = build_fig3_history()
            _, root = prepared_tree(repo)
            leaf = SearchStep(root, "prioritized", seed).draw()
            clean_id = leaf.path_from_root()[1].identifier
            assert clean_id.endswith("0.1"), seed

    def test_prioritized_skips_run_leaves(self):
        repo = build_fig3_history()
        _, root = prepared_tree(repo)
        picked = list(iter(SearchStep(root, "prioritized", 0).draw, None))
        assert len(picked) == 10  # every candidate searched exactly once
        assert len({id(p) for p in picked}) == 10

    def test_random_covers_all(self):
        repo = build_fig3_history()
        _, root = prepared_tree(repo)
        picked = list(iter(SearchStep(root, "random", 1).draw, None))
        assert len(picked) == 10

    def test_exhausted_returns_none(self):
        repo = build_fig3_history()
        _, root = prepared_tree(repo)
        step = SearchStep(root, "prioritized", 0)
        while step.draw() is not None:
            pass
        assert root.unrun == 0
        assert pick_prioritized_leaf(root, np.random.default_rng(0)) is None
        assert pick_random_leaf(root, np.random.default_rng(0)) is None
        # a new step over the same tree counts its leaves afresh
        assert SearchStep(root, "random", 0).draw() is not None


# ----------------------------------------------- unrun counts, by property
#: a few distinct scores, so that ties between siblings are common
SCORES = st.sampled_from([0.25, 0.5, 0.75, float("nan")])


@st.composite
def search_trees(draw):
    """A search-tree shape: a list of child shapes per internal node, a
    score (or ``None``) per leaf. Depth 1-4, branching 1-4, and any
    subtree may be pruned — all of them, down to an empty root."""
    depth = draw(st.integers(1, 4))

    def subtree(level):
        if level == depth:
            return draw(st.none() | SCORES)
        children = [subtree(level + 1) for _ in range(draw(st.integers(1, 4)))]
        kept = draw(st.lists(st.booleans(), min_size=len(children), max_size=len(children)))
        return [child for child, keep in zip(children, kept) if keep]

    return subtree(0)


def grow(shape):
    """The tree of a shape; a non-root node's component names its place."""
    root = TreeNode(executed=True)

    def attach(parent, shape, path):
        for index, child_shape in enumerate(shape):
            child = parent.add_child(
                TreeNode(component=SimpleNamespace(identifier=path + (index,)))
            )
            if isinstance(child_shape, list):
                attach(child, child_shape, path + (index,))
            elif child_shape is not None:  # a leaf trained in the history
                child.score, child.executed = child_shape, True

    attach(root, shape, ())
    return root


def brute_unrun(node, drawn):
    if node.is_leaf:
        return 0 if node.is_root or id(node) in drawn else 1
    return sum(brute_unrun(child, drawn) for child in node.children)


@settings(max_examples=200, deadline=None)
@given(
    shape=search_trees(),
    method=st.sampled_from(["prioritized", "random"]),
    seed=st.integers(0, 2**16),
    settled=st.lists(SCORES, max_size=64),
)
def test_unrun_counts_and_draws_match_the_brute_force_reference(
    shape, method, seed, settled
):
    """After every draw each node's ``unrun`` is the brute-force count of
    undrawn leaves beneath it, and the draws are the frozen reference
    picker's over a plain run set, score settling included."""
    root, twin = grow(shape), grow(shape)
    step = SearchStep(root, method, seed)
    reference = (
        reference_pick_prioritized_leaf if method == "prioritized" else reference_pick_random_leaf
    )
    rng = np.random.default_rng(seed)
    refresh_scores(twin)
    drawn, run = set(), set()
    scores = iter(settled)
    while True:
        leaf, expected = step.draw(), reference(twin, run, rng)
        if leaf is None or expected is None:
            assert leaf is expected is None
            break
        assert leaf.identifier == expected.identifier
        drawn.add(id(leaf))
        run.add(id(expected))
        for node in iter_nodes(root):
            assert node.unrun == brute_unrun(node, drawn)
        score = next(scores, None)
        step.settle(leaf, score)
        expected.score = score
        if method == "prioritized":
            propagate_leaf_score(expected)
    assert root.unrun == 0 and step.drawn == brute_unrun(grow(shape), set())


def test_nan_scores_fall_back_to_a_uniform_pick():
    """A NaN score makes the best estimate NaN, which equals no child:
    the pick falls back to all open children instead of failing."""
    nan = float("nan")
    root = grow([[nan, None], [None, 0.5]])
    picked = list(iter(SearchStep(root, "prioritized", 0).draw, None))
    assert len(picked) == 4


@settings(max_examples=100, deadline=None)
@given(shape=search_trees(), seed=st.integers(0, 2**16))
def test_exhaustive_draws_every_leaf_in_depth_first_order(shape, seed):
    """Algorithm 2's walk is a picker too: it draws the leaves in the
    depth-first order of ``leaves``, whatever the scores and the seed."""
    root = grow(shape)
    drawn = list(iter(SearchStep(root, "exhaustive", seed).draw, None))
    assert [id(leaf) for leaf in drawn] == [id(leaf) for leaf in leaves(root)]


class TestRunOrderedSearch:
    def _search(self, method, budget=None):
        repo = build_fig3_history()
        scope, root = prepared_tree(repo)
        executor = Executor(repo.checkpoints, metric="accuracy", reuse=True)
        return run_ordered_search(
            root, scope, executor, ExecutionContext(seed=0),
            method=method, budget=budget, seed=4,
        )

    def test_prioritized_covers_all_without_budget(self):
        evaluations = self._search("prioritized")
        assert len(evaluations) == 10
        assert len({e.path_key for e in evaluations}) == 10

    def test_budget_caps_evaluations(self):
        evaluations = self._search("prioritized", budget=4)
        assert len(evaluations) == 4

    def test_prioritized_finds_optimum_within_budget(self):
        """With informative history scores, a small budget still surfaces
        the optimal pipeline (score 0.8) — the paper's limited-budget
        trade-off."""
        evaluations = self._search("prioritized", budget=4)
        assert max(e.score for e in evaluations if e.score is not None) == 0.8

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            self._search("greedy")

    def test_history_candidates_not_reexecuted(self):
        evaluations = self._search("prioritized")
        free = [e for e in evaluations if e.report is None]
        assert len(free) == 5  # the five trained pipelines


class TestSearchSimulator:
    def _simulator(self):
        repo = build_fig3_history()
        head = repo.head_commit("toy", "master")
        merge_head = repo.head_commit("toy", "dev")
        scope = build_merge_scope(
            repo.graph, repo.registry, repo.spec("toy"), head, merge_head
        )
        outcome = repo.merge("toy", "master", "dev", mode="pcpr")
        leaf_scores = {e.path_key: e.score for e in outcome.evaluations}
        costs = {}
        for record in repo.checkpoints.records():
            costs[record.component_id] = 0.01
        lut = build_compatibility_lut(scope)
        return SearchSimulator(
            scope, leaf_scores, costs,
            prune=lambda root: prune_incompatible(root, lut),
        )

    def test_trial_covers_all_candidates(self):
        simulator = self._simulator()
        trial = simulator.run_trial("random", seed=0)
        assert len(trial.steps) == 10

    def test_end_times_monotone(self):
        simulator = self._simulator()
        trial = simulator.run_trial("prioritized", seed=0)
        times = [s.end_time for s in trial.steps]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_history_candidates_cost_nothing(self):
        """Exactly the 5 history-trained candidates add zero incremental
        cost in any trial — their whole paths are pre-executed."""
        simulator = self._simulator()
        trial = simulator.run_trial("prioritized", seed=0)
        previous = 0.0
        zero_cost_steps = 0
        for step in trial.steps:
            if step.end_time == previous:
                zero_cost_steps += 1
            previous = step.end_time
        assert zero_cost_steps == 5

    def test_reuse_cost_model(self):
        """Total trial cost must be the cost of each distinct tree node
        executed once — never more (PR reuse within the trial)."""
        simulator = self._simulator()
        trial = simulator.run_trial("random", seed=3)
        total = trial.steps[-1].end_time
        # 6 feasible components at 0.01 each (Fig. 4 count)
        assert total == pytest.approx(0.06)

    def test_trials_deterministic_by_seed(self):
        simulator = self._simulator()
        a = simulator.run_trial("random", seed=7)
        b = simulator.run_trial("random", seed=7)
        assert [s.path_key for s in a.steps] == [s.path_key for s in b.steps]

    def test_prioritized_beats_random_on_average(self):
        simulator = self._simulator()
        best = 0.8

        def first_optimal_rank(trial):
            return next(
                s.rank for s in trial.steps if s.score >= best - 1e-9
            )

        random_ranks = [
            first_optimal_rank(simulator.run_trial("random", seed=s))
            for s in range(40)
        ]
        prioritized_ranks = [
            first_optimal_rank(simulator.run_trial("prioritized", seed=s))
            for s in range(40)
        ]
        assert np.mean(prioritized_ranks) < np.mean(random_ranks)

    def test_position_of(self):
        simulator = self._simulator()
        trial = simulator.run_trial("random", seed=0)
        key = trial.steps[3].path_key
        assert trial.position_of(key) == 3
        assert trial.position_of("missing") is None
