"""Where the engine's threads are, and what the search window guarantees.

The window rule — at most ``W`` uncommitted draws, the window filled
before a commit, commits in draw order — makes the picker's view at draw
``j`` exactly results ``0..j-W``, so a search is a function of ``(seed,
workers)`` alone. ``golden_search_window.jsonl`` holds the ``(path_key,
score)`` evaluation sequences of ``merge(workers=W)`` on
``build_delayed_merge_repo`` as the thread-per-worker coordinator
produced them at ``c099a8a``, before the search became one caller-thread
loop; ``python tests/engine/test_thread_model.py`` prints them afresh.
"""

import json
import threading
import time
from pathlib import Path

import pytest

from repro.core.context import ExecutionContext
from repro.core.merge.prioritized import SearchStep
from repro.engine import DagScheduler, ParallelExecutor
from repro.experiments import parallel

GOLDEN = Path(__file__).with_name("golden_search_window.jsonl")
WORKERS = (2, 3, 4)
SEEDS = (0, 1, 7)
BUDGETS = (None, 5)


def delayed_repo():
    return parallel.build_delayed_merge_repo(stage_seconds=0.002, model_seconds=0.004)


def merged(repo, workers, seed=0, budget=None):
    return repo.merge(
        "pmerge", "master", "dev", search="prioritized",
        workers=workers, seed=seed, budget=budget,
    )


def sequences() -> dict:
    return {
        f"workers={workers},seed={seed},budget={budget}": [
            [e.path_key, e.score]
            for e in merged(delayed_repo(), workers, seed, budget).evaluations
        ]
        for workers in WORKERS
        for seed in SEEDS
        for budget in BUDGETS
    }


def rendered(found: dict) -> str:
    """One configuration per line."""
    return "".join(f"{json.dumps({key: found[key]})}\n" for key in sorted(found))


@pytest.mark.timeout(300)
def test_evaluation_sequences_match_the_golden_byte_for_byte():
    assert rendered(sequences()) == GOLDEN.read_text()


def instrument(monkeypatch, around) -> None:
    """Wrap the model stage of every repo built from here on:
    ``around(inner, payload, params, rng)`` runs once per candidate, on
    whatever thread evaluates it. (``fn`` is not part of a component's
    fingerprint, so the golden's path keys and refs are unchanged.)"""
    inner = parallel._model_fn
    monkeypatch.setattr(
        parallel,
        "_model_fn",
        lambda payload, params, rng: around(inner, payload, params, rng),
    )


class Probe:
    """Counts candidate evaluations: how many ran, how many at once, and
    on which threads."""

    def __init__(self, hold=0.01):
        self.hold = hold
        self.lock = threading.Lock()
        self.running = 0
        self.peak = 0
        self.finished = 0
        self.threads = set()

    def __call__(self, inner, payload, params, rng):
        with self.lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
            self.threads.add(threading.get_ident())
        try:
            time.sleep(self.hold)
            return inner(payload, params, rng)
        finally:
            with self.lock:
                self.running -= 1
                self.finished += 1


@pytest.mark.timeout(120)
@pytest.mark.parametrize("workers", WORKERS)
def test_concurrent_candidates_reach_the_window_and_never_exceed_it(
    workers, monkeypatch
):
    # Held long enough that the first W candidates overlap even when a
    # loaded box is slow to start a pool thread.
    probe = Probe(hold=0.04)
    instrument(monkeypatch, probe)
    outcome = merged(delayed_repo(), workers)
    assert outcome.candidates_evaluated == probe.finished == 24
    assert probe.peak == workers


@pytest.mark.timeout(120)
@pytest.mark.parametrize("workers", WORKERS)
def test_result_i_commits_only_after_draw_i_plus_w_minus_1(workers, monkeypatch):
    """Draws and commits are the ``SearchStep``'s; logging both shows the
    interleaving the search produced."""
    log = []
    draw, commit = SearchStep.draw, SearchStep.commit

    def logged_draw(step):
        leaf = draw(step)
        log.append(("draw", leaf is not None))
        return leaf

    def logged_commit(step, leaf, report):
        log.append(("commit", True))
        commit(step, leaf, report)

    monkeypatch.setattr(SearchStep, "draw", logged_draw)
    monkeypatch.setattr(SearchStep, "commit", logged_commit)
    merged(delayed_repo(), workers)

    drawn = committed = 0
    stopped = False
    for kind, live in log:
        if kind == "draw":
            assert drawn - committed < workers  # at most W uncommitted draws
            drawn += live
            stopped = stopped or not live
        else:
            # result i commits once draw i+W-1 was issued or drawing stopped
            assert stopped or drawn >= committed + workers
            committed += 1
    assert drawn == committed == 24


@pytest.mark.timeout(120)
def test_one_worker_builds_no_pool_and_starts_no_thread(monkeypatch):
    probe = Probe()
    threads_alive = []

    def around(inner, payload, params, rng):
        threads_alive.append(threading.active_count())
        return probe(inner, payload, params, rng)

    instrument(monkeypatch, around)
    before = threading.active_count()
    merged(delayed_repo(), workers=1)
    assert probe.finished == 24
    assert probe.threads == {threading.get_ident()}
    assert set(threads_alive) == {before}


@pytest.mark.timeout(120)
def test_a_chain_runs_inline_at_any_worker_count(monkeypatch):
    """Width 1 — every bundled pipeline — never has two stages ready, so
    ``workers=4`` reaches neither the scheduler nor a thread; a spec that
    branches does."""
    from test_parallel_executor import diamond_instance

    scheduled = []
    run = DagScheduler.run
    monkeypatch.setattr(
        DagScheduler, "run", lambda self, execute: scheduled.append(self) or run(self, execute)
    )
    probe = Probe()
    instrument(monkeypatch, probe)
    repo = delayed_repo()
    before = threading.active_count()
    report = repo.run_head("pmerge", workers=4)
    assert not report.failed and probe.finished == 1
    assert probe.threads == {threading.get_ident()}
    assert threading.active_count() == before and not scheduled

    engine = ParallelExecutor.from_executor(repo.executor, workers=4)
    assert not engine.run(diamond_instance(), ExecutionContext(seed=0)).failed
    assert len(scheduled) == 1


class Crash(BaseException):
    """Not an ``Exception``: the stage body contains those as a failed
    candidate. This is the scheduling-bug / interrupt case."""


@pytest.mark.timeout(120)
def test_a_crashing_candidate_surfaces_on_the_caller(monkeypatch):
    """The crash re-raises on the calling thread once the candidates in
    flight beside it have finished, and no draw after the crashed one is
    committed to the tree."""
    probe = Probe()
    crashed_model = "pmerge.model@dev@0.2"
    drawn, committed = [], []
    draw, commit = SearchStep.draw, SearchStep.commit

    def around(inner, payload, params, rng):
        if params["idx"] == 2:
            raise Crash("crash probe")
        return probe(inner, payload, params, rng)

    def logged_draw(step):
        leaf = draw(step)
        drawn.append(leaf and leaf.identifier)
        return leaf

    def logged_commit(step, leaf, report):
        committed.append(leaf.identifier)
        commit(step, leaf, report)

    instrument(monkeypatch, around)
    monkeypatch.setattr(SearchStep, "draw", logged_draw)
    monkeypatch.setattr(SearchStep, "commit", logged_commit)
    repo = delayed_repo()
    head_before = repo.head_commit("pmerge", "master").commit_id
    with pytest.raises(Crash, match="crash probe"):
        merged(repo, workers=3)
    assert probe.running == 0  # in-flight candidates were waited for
    assert committed == drawn[: len(committed)]
    assert len(committed) <= drawn.index(crashed_model)
    assert repo.head_commit("pmerge", "master").commit_id == head_before


if __name__ == "__main__":
    print(rendered(sequences()), end="")
