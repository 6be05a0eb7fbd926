"""Merge search across window widths: determinism, equivalence, reuse.

The search's contract: ``workers=1`` is the sequential search of the
frozen ``reference_ordered_search`` (``tests/engine/reference.py``:
same RNG stream, same draw sequence); ``workers > 1`` is deterministic
per (seed, workers) and — unbudgeted — reaches identical candidate
scores, stage output refs, winner, and executed/reused totals; and
candidates sharing a prefix execute each (component, input) pair
exactly once. ``test_search_oracle.py`` holds every width to the
thread-pool driver it replaced.
"""

import pytest

from repro.core import LibraryComponent
from repro.core.context import ExecutionContext
from repro.core.executor import Executor
from repro.core.merge import (
    build_compatibility_lut,
    build_merge_scope,
    build_search_tree,
    mark_checkpointed_nodes,
    prune_incompatible,
    run_ordered_search,
)
from repro.core.repository import MLCask
from repro.errors import MergeError

from engine.reference import ReferenceExecutor, reference_ordered_search
from helpers import (
    TOY_SPEC,
    build_fig3_history,
    toy_clean,
    toy_extract,
    toy_initial_components,
    toy_model,
)

WORKER_COUNTS = (2, 3, 4)


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


def sequential_evaluations(method="prioritized", seed=4, budget=None):
    repo = build_fig3_history()
    scope, root = prepared_tree(repo)
    executor = Executor(repo.checkpoints, metric="accuracy", reuse=True)
    return run_ordered_search(
        root, scope, executor, ExecutionContext(seed=0),
        method=method, budget=budget, seed=seed,
    )


def reference_evaluations(method="prioritized", seed=4, budget=None):
    """The frozen search loop over the frozen executor loop."""
    repo = build_fig3_history()
    scope, root = prepared_tree(repo)
    executor = ReferenceExecutor(repo.checkpoints, metric="accuracy", reuse=True)
    return reference_ordered_search(
        root, scope, executor, ExecutionContext(seed=0),
        method=method, budget=budget, seed=seed,
    )


def windowed_evaluations(workers, method="prioritized", seed=4, budget=None):
    repo = build_fig3_history()
    scope, root = prepared_tree(repo)
    executor = Executor(repo.checkpoints, metric="accuracy", reuse=True)
    return run_ordered_search(
        root, scope, executor, ExecutionContext(seed=0),
        method=method, workers=workers, budget=budget, seed=seed,
    )


def evaluation_sequence(evaluations):
    return [(e.index, e.path_key, e.score, e.report is None) for e in evaluations]


def score_map(evaluations):
    return {e.path_key: e.score for e in evaluations}


def output_ref_map(evaluations):
    return {
        e.path_key: dict(e.report.stage_outputs)
        for e in evaluations
        if e.report is not None and not e.report.failed
    }


def totals(evaluations):
    executed = sum(e.report.n_executed for e in evaluations if e.report is not None)
    reused = sum(e.report.n_reused for e in evaluations if e.report is not None)
    return executed, reused


class TestWorkersOneIsSequential:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("method", ["prioritized", "random"])
    @pytest.mark.parametrize("seed", [0, 4, 11])
    def test_identical_evaluation_sequence(self, method, seed):
        expected = evaluation_sequence(sequential_evaluations(method, seed))
        actual = evaluation_sequence(windowed_evaluations(1, method, seed))
        assert actual == expected
        reference = reference_evaluations(method, seed)
        assert expected == evaluation_sequence(reference)
        evaluations = sequential_evaluations(method, seed)
        assert output_ref_map(evaluations) == output_ref_map(reference)
        assert totals(evaluations) == totals(reference)

    @pytest.mark.timeout(120)
    def test_identical_under_budget(self):
        expected = evaluation_sequence(sequential_evaluations(budget=4))
        actual = evaluation_sequence(windowed_evaluations(1, budget=4))
        assert actual == expected
        assert expected == evaluation_sequence(reference_evaluations(budget=4))


class TestMultiWorkerEquivalence:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("method", ["prioritized", "random"])
    def test_full_search_reaches_identical_results(self, workers, method):
        """Unbudgeted: every leaf is evaluated, so scores, output refs,
        and executed/reused totals must match sequential bit for bit."""
        expected = sequential_evaluations(method)
        actual = windowed_evaluations(workers, method)
        assert len(actual) == len(expected)
        assert score_map(actual) == score_map(expected)
        assert output_ref_map(actual) == output_ref_map(expected)
        assert totals(actual) == totals(expected)

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_deterministic_per_seed_and_workers(self, workers):
        first = evaluation_sequence(windowed_evaluations(workers, seed=4))
        second = evaluation_sequence(windowed_evaluations(workers, seed=4))
        assert first == second

    @pytest.mark.timeout(120)
    def test_budget_caps_evaluations(self):
        evaluations = windowed_evaluations(4, budget=4)
        assert len(evaluations) == 4

    @pytest.mark.timeout(120)
    def test_history_candidates_not_reexecuted(self):
        evaluations = windowed_evaluations(4)
        free = [e for e in evaluations if e.report is None]
        assert len(free) == 5  # the five trained pipelines of Fig. 3

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown search method"):
            windowed_evaluations(2, method="greedy")

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            windowed_evaluations(0)


class TestRepositoryMerge:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_merge_matches_sequential_outcome(self, workers):
        sequential_outcome = build_fig3_history().merge(
            "toy", "master", "dev", search="prioritized", seed=4
        )
        outcome = build_fig3_history().merge(
            "toy", "master", "dev", search="prioritized", workers=workers, seed=4
        )
        assert outcome.commit.score == sequential_outcome.commit.score == 0.8
        assert (
            outcome.candidates_evaluated
            == sequential_outcome.candidates_evaluated
        )
        assert outcome.components_executed == sequential_outcome.components_executed
        assert outcome.components_reused == sequential_outcome.components_reused
        assert (
            outcome.commit.component_versions
            == sequential_outcome.commit.component_versions
        )

    def test_exhaustive_with_workers_rejected(self):
        repo = build_fig3_history()
        with pytest.raises(MergeError, match="exhaustive"):
            repo.merge("toy", "master", "dev", search="exhaustive", workers=2)

    def test_invalid_worker_count_rejected(self):
        repo = build_fig3_history()
        with pytest.raises(MergeError, match="workers"):
            repo.merge("toy", "master", "dev", workers=0)

    @pytest.mark.parametrize(
        "search, bound",
        [
            ("exhaustive", {"budget": 2}),
            ("exhaustive", {"time_budget_seconds": 5.0}),
            ("prioritized", {"budget": 0}),
            ("random", {"budget": -3}),
            ("prioritized", {"time_budget_seconds": -1.0}),
            ("random", {"time_budget_seconds": float("nan")}),
        ],
        ids=[
            "exhaustive-budget", "exhaustive-time", "zero", "negative",
            "negative-time", "nan-time",
        ],
    )
    def test_a_budget_it_cannot_honour_is_refused_up_front(self, search, bound):
        """The exhaustive walk evaluates every candidate; an ordered search
        needs at least one evaluation and a time budget a clock can reach.
        Anything else is a ``MergeError`` naming the argument, raised
        before a candidate runs."""
        repo = build_fig3_history()
        head = repo.head_commit("toy", "master").commit_id
        rows = len(repo.lineage)
        (argument,) = bound
        with pytest.raises(MergeError, match=argument):
            repo.merge("toy", "master", "dev", search=search, **bound)
        assert repo.head_commit("toy", "master").commit_id == head
        assert len(repo.lineage) == rows


class TestColdMergeExecutesEachPrefixOnce:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_shared_prefixes_execute_once(self, workers):
        """A cold two-branch history whose candidates share prefixes: at
        any window width each distinct tree prefix executes exactly once
        — the counts a sequential PR-pruned search produces. (The DAG
        path's single-flight, where two stages of one run share a key,
        is ``test_single_flight.py``'s.)"""
        counts: dict[str, int] = {}

        def counting(component, label):
            inner = component.fn

            def fn(payload, params, rng):
                counts[label] = counts.get(label, 0) + 1
                return inner(payload, params, rng)

            return LibraryComponent(
                name=component.name,
                version=component.version,
                fn=fn,
                params=component.params,
                input_schema=component.input_schema,
                output_schema=component.output_schema,
                is_model=component.is_model,
            )

        repo = MLCask(metric="accuracy", seed=0)
        components = toy_initial_components()
        components["clean"] = counting(toy_clean(0), "clean0")
        components["extract"] = counting(toy_extract(0), "extract0")
        components["model"] = counting(toy_model(0, 0.5), "model0")
        repo.create_pipeline(TOY_SPEC, components, run=False)
        repo.branch("toy", "dev", "master")
        repo.commit(
            "toy",
            {"extract": counting(toy_extract(1), "extract1")},
            branch="dev",
            run=False,
        )
        repo.commit(
            "toy",
            {"model": counting(toy_model(1, 0.7), "model1")},
            branch="dev",
            run=False,
        )
        repo.commit(
            "toy",
            {"clean": counting(toy_clean(1), "clean1")},
            branch="master",
            run=False,
        )

        outcome = repo.merge(
            "toy", "master", "dev", search="prioritized", workers=workers, seed=0
        )
        # Tree: 2 clean x 2 extract x 2 model = 8 leaves, no checkpoints.
        # Exactly-once per distinct (component, upstream-prefix) pair:
        # each clean runs once, each extract once per clean (2), each
        # model once per clean x extract (4).
        assert counts == {
            "clean0": 1,
            "clean1": 1,
            "extract0": 2,
            "extract1": 2,
            "model0": 4,
            "model1": 4,
        }
        assert outcome.candidates_evaluated == 8
        assert outcome.commit.score == 0.7
