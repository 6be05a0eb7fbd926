"""The search step in absolute terms, on the live search and the simulator.

``run_ordered_search`` and ``SearchSimulator`` loop over one
``SearchStep``; the differential tests hold the live search to the
frozen ``reference_ordered_search``. These tests state
what a draw and a commit guarantee without a second implementation:
what the budgets count, live and simulated, what a history-scored winner
leaves in the merge commit, and the simulator's step sequences as they
were before the three loops became one.
"""

import pytest

from repro.core.context import ExecutionContext
from repro.core.executor import Executor
from repro.core.merge import (
    SearchSimulator,
    build_compatibility_lut,
    build_merge_scope,
    leaves,
    path_key_of,
    prune_incompatible,
    run_ordered_search,
)
from repro.core.merge.prioritized import SearchStep, search_window
from repro.errors import NoCandidateError

from helpers import build_fig3_history, fresh_toy_repo, toy_extract, toy_model
from test_prioritized import prepared_tree


def search(**kwargs):
    repo = build_fig3_history()
    scope, root = prepared_tree(repo)
    executor = Executor(repo.checkpoints, metric="accuracy", reuse=True)
    return run_ordered_search(root, scope, executor, ExecutionContext(seed=0), **kwargs)


def sequence(evaluations):
    return [(e.index, e.path_key, e.score, e.report is None) for e in evaluations]


@pytest.mark.timeout(120)
class TestBudgets:
    @pytest.mark.parametrize("method", ["prioritized", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_budget_counts_history_scored_leaves(self, method, seed):
        """A leaf scored from history is a searched candidate: it takes a
        slot of the budget although nothing runs. A budgeted search is
        the unbudgeted one, cut after ``budget`` draws."""
        full = search(method=method, seed=seed)
        assert len(full) == 10
        assert sum(e.report is None for e in full) == 5
        # cut just after the first history-scored leaf, so it is counted
        budget = next(e.index for e in full if e.report is None) + 1
        cut = search(method=method, seed=seed, budget=budget)
        assert sequence(cut) == sequence(full)[:budget]
        assert cut[-1].report is None and cut[-1].score is not None

    def test_budget_zero_evaluates_nothing(self):
        assert search(budget=0) == []

    @pytest.mark.parametrize("method", ["prioritized", "random"])
    def test_zero_time_budget_evaluates_exactly_one_candidate(self, method):
        """The clock is consulted only once something has been evaluated:
        a merge under any time budget still finds a candidate."""
        evaluations = search(method=method, time_budget_seconds=0)
        assert len(evaluations) == 1

    @pytest.mark.parametrize("seconds", [-1, float("nan")], ids=["negative", "nan"])
    def test_time_budget_no_clock_reaches_is_rejected(self, seconds):
        """A NaN budget would never stop the search: the step refuses it
        like a negative one, for every caller, not just the merge."""
        with pytest.raises(ValueError, match="non-negative"):
            search(time_budget_seconds=seconds)


@pytest.mark.timeout(120)
class TestHistoryScoredWinner:
    """When the best candidate of an ordered search is a leaf scored from
    history, the search holds no report for it — the merge commit must
    record its stage outputs and metrics all the same."""

    @pytest.fixture(scope="class")
    def exhaustive(self):
        """path key -> the report the exhaustive walk holds for that
        candidate (it runs every one, history-trained or not)."""
        outcome = build_fig3_history().merge("toy", "master", "dev", search="exhaustive")
        assert len(outcome.commit.stage_outputs) == 4 and outcome.commit.score == 0.8
        return {e.path_key: e.report for e in outcome.evaluations}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("search_method", ["prioritized", "random"])
    def test_merge_commit_records_what_the_exhaustive_merge_would(
        self, exhaustive, search_method, seed, workers
    ):
        repo = build_fig3_history()
        rows_before = len(repo.lineage)
        outcome = repo.merge(
            "toy", "master", "dev", search=search_method, seed=seed, workers=workers
        )
        commit = outcome.commit
        # two candidates tie at 0.8, so the winner is whichever the search
        # reached first; the exhaustive walk's report for it is the oracle
        expected = exhaustive[_winner(outcome).path_key]
        assert len(commit.stage_outputs) == 4
        assert commit.stage_outputs == expected.stage_outputs
        assert commit.metrics == expected.metrics == {"accuracy": 0.8}
        assert commit.score == expected.score == 0.8

        assert outcome.winner_report is not None
        assert outcome.winner_report.stage_outputs == commit.stage_outputs
        # the winner's ledger rows carry the merge commit
        bound = repo.lineage.records_for_commits([commit.commit_id])
        assert [r.stage for r in bound] == ["dataset", "clean", "extract", "model"]
        assert {r.branch for r in bound} == {"master"}
        assert {r.output_ref for r in bound} == set(commit.stage_outputs.values())
        assert {"pipeline": "toy", "branch": "master"} in repo.impact_of("dataset")["branches"]

        # resolving the winner is not a candidate evaluation
        assert outcome.candidates_evaluated == len(outcome.evaluations) == 10
        assert outcome.components_executed == 6
        assert outcome.components_reused == 14
        searched_rows = sum(
            len(e.report.stage_reports) for e in outcome.evaluations if e.report is not None
        )
        resolved_rows = len(repo.lineage) - rows_before - searched_rows
        assert resolved_rows == (4 if _winner(outcome).report is None else 0)

    def test_resolving_the_winner_executes_and_archives_nothing(self):
        repo = build_fig3_history()
        outcome = repo.merge("toy", "master", "dev", search="random", seed=0)
        assert _winner(outcome).report is None  # scored from history
        assert outcome.winner_report.n_executed == 0
        assert outcome.winner_report.n_reused == 4
        exhaustive = build_fig3_history()
        exhaustive.merge("toy", "master", "dev", search="exhaustive")
        assert len(repo.checkpoints) == len(exhaustive.checkpoints)


@pytest.mark.parametrize(
    "search_method, workers",
    [("exhaustive", 1), ("prioritized", 1), ("prioritized", 2), ("random", 1), ("random", 2)],
)
def test_a_merge_pruned_empty_finds_no_candidate(search_method, workers):
    """Both branches keep extract 1.1 (feature schema v1) and bump a model
    that reads v0: PC pruning leaves the virtual root alone, which no
    search may draw as a candidate."""
    repo = fresh_toy_repo()
    unchecked = {"validate": False, "run": False}
    repo.commit("toy", {"extract": toy_extract(1, variant=1)}, **unchecked)
    repo.branch("toy", "dev")
    repo.commit("toy", {"model": toy_model(1, 0.6)}, branch="dev", **unchecked)
    repo.commit("toy", {"model": toy_model(2, 0.7)}, **unchecked)
    head = repo.head_commit("toy", "master").commit_id
    with pytest.raises(NoCandidateError):
        repo.merge("toy", "master", "dev", search=search_method, workers=workers)
    assert repo.head_commit("toy", "master").commit_id == head


def _winner(outcome):
    viable = [e for e in outcome.evaluations if e.score is not None]
    return max(viable, key=lambda e: e.score)


def _short(path_key):
    """clean / extract / model version digits of a Fig. 3 candidate."""
    clean, extract, model = (p.rsplit("@", 1)[1] for p in path_key.split("/")[1:])
    return clean[-1] + extract[0] + model[-1]


#: ``SearchSimulator.run_trial`` on the Fig. 3 history at ``fe088d0``
#: (every component costs 0.01): for seeds 0-9, each step as
#: ``<candidate>:<end time in hundredths>``.
GOLDEN_TRIALS = {
    (True, "prioritized"): [
        "113:2 112:3 104:3 100:4 101:5 013:5 012:5 001:5 004:6 000:6",
        "104:0 113:2 112:3 100:4 101:5 013:5 012:5 001:5 004:6 000:6",
        "112:2 100:3 013:3 012:3 001:3 004:4 000:4 104:4 101:5 113:6",
        "112:2 100:3 013:3 012:3 001:3 004:4 000:4 104:4 101:5 113:6",
        "113:2 112:3 101:4 104:4 100:5 013:5 012:5 001:5 004:6 000:6",
        "113:2 112:3 100:4 104:4 101:5 013:5 012:5 001:5 004:6 000:6",
        "104:0 112:2 101:3 013:3 100:4 012:4 001:4 004:5 000:5 113:6",
        "113:2 112:3 101:4 104:4 100:5 013:5 012:5 001:5 004:6 000:6",
        "112:2 100:3 013:3 012:3 001:3 004:4 000:4 113:5 104:5 101:6",
        "101:1 112:3 013:3 104:3 100:4 012:4 001:4 004:5 000:5 113:6",
    ],
    (True, "random"): [
        "112:2 100:3 013:3 004:4 001:4 000:4 012:4 104:4 101:5 113:6",
        "013:0 100:1 112:3 113:4 000:4 004:5 101:6 104:6 001:6 012:6",
        "112:2 001:2 000:2 013:2 100:3 113:4 012:4 004:5 104:5 101:6",
        "112:2 000:2 001:2 012:2 013:2 113:3 101:4 100:5 004:6 104:6",
        "101:1 113:3 112:4 012:4 104:4 100:5 013:5 000:5 004:6 001:6",
        "104:0 112:2 000:2 101:3 012:3 013:3 100:4 004:5 113:6 001:6",
        "013:0 100:1 104:1 001:1 113:3 004:4 101:5 012:5 000:5 112:6",
        "113:2 100:3 104:3 112:4 012:4 013:4 101:5 000:5 004:6 001:6",
        "101:1 001:1 004:2 113:4 012:4 013:4 104:4 112:5 100:6 000:6",
        "013:0 112:2 113:3 001:3 000:3 104:3 100:4 101:5 012:5 004:6",
    ],
    # mark_history=False: the cold start of the priors ablation
    (False, "prioritized"): [
        "113:4 000:7 100:9 112:10 104:11 101:12 013:14 012:15 001:16 004:17",
        "013:4 100:7 012:8 001:10 000:11 004:12 101:13 104:14 112:16 113:17",
        "100:4 001:7 000:8 004:9 013:11 012:12 113:14 112:15 101:16 104:17",
        "100:4 001:7 013:9 012:10 000:11 004:12 104:13 101:14 113:16 112:17",
        "113:4 112:5 101:7 004:10 000:11 104:12 100:13 013:15 012:16 001:17",
        "112:4 104:6 100:7 101:8 004:11 000:12 001:13 113:14 012:16 013:17",
        "013:4 012:5 004:7 000:8 104:11 101:12 001:13 112:15 100:16 113:17",
        "113:4 112:5 101:7 000:10 100:11 104:12 013:14 012:15 004:16 001:17",
        "100:4 104:5 113:7 112:8 004:11 000:12 101:13 001:14 012:16 013:17",
        "013:4 004:6 113:9 112:10 012:11 101:13 001:14 000:15 104:16 100:17",
    ],
    (False, "random"): [
        "112:4 100:6 013:9 004:11 001:12 000:13 012:14 104:15 101:16 113:17",
        "013:4 100:7 112:9 113:10 000:12 004:13 101:14 104:15 001:16 012:17",
        "112:4 001:7 000:8 013:10 100:12 113:13 012:14 004:15 104:16 101:17",
        "112:4 000:7 001:8 012:10 013:11 113:12 101:14 100:15 004:16 104:17",
        "101:4 113:6 112:7 012:10 104:11 100:12 013:13 000:15 004:16 001:17",
        "104:4 112:6 000:9 101:10 012:12 013:13 100:14 004:15 113:16 001:17",
        "013:4 100:7 104:8 001:10 113:12 004:13 101:14 012:15 000:16 112:17",
        "113:4 100:6 104:7 112:8 012:11 013:12 101:13 000:15 004:16 001:17",
        "101:4 001:7 004:8 113:10 012:12 013:13 104:14 112:15 100:16 000:17",
        "013:4 112:7 113:8 001:10 000:11 104:13 100:14 101:15 012:16 004:17",
    ],
}

#: the accuracy each Fig. 3 model version is scripted to report
MODEL_QUALITY = {"0": 0.5, "1": 0.55, "2": 0.6, "3": 0.8, "4": 0.7}


@pytest.fixture(scope="module")
def inputs():
    repo = build_fig3_history()
    scope = build_merge_scope(
        repo.graph,
        repo.registry,
        repo.spec("toy"),
        repo.head_commit("toy", "master"),
        repo.head_commit("toy", "dev"),
    )
    outcome = repo.merge("toy", "master", "dev", mode="pcpr")
    leaf_scores = {e.path_key: e.score for e in outcome.evaluations}
    costs = {record.component_id: 0.01 for record in repo.checkpoints.records()}
    return scope, leaf_scores, costs, build_compatibility_lut(scope)


class TestSimulatorGolden:
    @pytest.mark.parametrize("mark_history, method", sorted(GOLDEN_TRIALS))
    def test_step_sequences_unchanged(self, inputs, mark_history, method):
        scope, leaf_scores, costs, lut = inputs
        simulator = SearchSimulator(
            scope,
            leaf_scores,
            costs,
            mark_history=mark_history,
            prune=lambda root: prune_incompatible(root, lut),
        )
        for seed, golden in enumerate(GOLDEN_TRIALS[mark_history, method]):
            trial = simulator.run_trial(method, seed)
            assert [s.rank for s in trial.steps] == list(range(10))
            actual = " ".join(
                f"{_short(s.path_key)}:{round(s.end_time * 100)}" for s in trial.steps
            )
            assert actual == golden, seed
            for step in trial.steps:
                assert step.end_time * 100 == pytest.approx(round(step.end_time * 100))
                assert step.score == MODEL_QUALITY[_short(step.path_key)[-1]]

    def test_unknown_method_rejected(self, inputs):
        scope, leaf_scores, costs, _ = inputs
        with pytest.raises(ValueError, match="unknown search method"):
            SearchSimulator(scope, leaf_scores, costs).run_trial("greedy", seed=0)


class TestSimulatedSearch:
    """A simulated search is ``search_window`` on the simulator's clock,
    so it honours the budgets a live search does: the Fig. 3 inputs
    above, every component costing 0.01 simulated seconds."""

    def simulator(self, inputs, leaf_scores=None):
        scope, scores, costs, lut = inputs
        return SearchSimulator(
            scope,
            scores if leaf_scores is None else leaf_scores,
            costs,
            prune=lambda root: prune_incompatible(root, lut),
        )

    def search(self, simulator, method, seed, **budgets):
        step = SearchStep(
            simulator.fresh_tree(), method, seed, clock=simulator.clock, **budgets
        )
        evaluations = search_window(step, simulator.evaluate)
        return [(e.path_key, e.elapsed_seconds, e.score) for e in evaluations]

    @pytest.mark.parametrize("method", ["prioritized", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_stops_at_its_evaluation_budget(self, inputs, method, seed):
        simulator = self.simulator(inputs)
        full = self.search(simulator, method, seed)
        assert len(full) == 10
        assert self.search(simulator, method, seed, budget=4) == full[:4]

    @pytest.mark.parametrize("method", ["prioritized", "random"])
    @pytest.mark.parametrize("seed", range(4))
    def test_stops_at_its_simulated_time_budget(self, inputs, method, seed):
        """No draw once the simulated clock reaches the budget: the cut
        is the first commit at or past 0.03 s, whatever the wall clock
        read."""
        simulator = self.simulator(inputs)
        full = self.search(simulator, method, seed)
        cut = self.search(simulator, method, seed, time_budget_seconds=0.03)
        stop = next(i for i, (_, end, _) in enumerate(full) if end >= 0.03)
        assert cut == full[: stop + 1]
        assert len(cut) < len(full)

    def test_a_leaf_with_no_recorded_score_settles_as_a_failure(self, inputs):
        """A failed candidate has no score in a merge's records; the
        simulator settles it as ``None``, as a live search settles a
        failed run, and the search goes on."""
        _, scores, _, _ = inputs
        tree = self.simulator(inputs).fresh_tree()
        missing = path_key_of(next(leaf for leaf in leaves(tree) if not leaf.executed))
        simulator = self.simulator(inputs, {k: v for k, v in scores.items() if k != missing})
        trial = simulator.run_trial("prioritized", seed=0)
        assert len(trial.steps) == 10
        assert [s.score for s in trial.steps if s.path_key == missing] == [None]
