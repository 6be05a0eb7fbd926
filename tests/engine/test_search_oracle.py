"""The caller-thread search loop against the thread-pool driver it replaced.

``metric_driven_merge`` runs every ordered search through
``run_ordered_search``, which evaluates each drawn candidate on the
calling thread. ``reference_parallel_search`` (in ``reference.py``) is
the driver it replaced, frozen: up to ``workers`` candidates in flight
on a thread pool, sharing one ``SingleFlight``.
Each test merges one history twice, once through each, and compares:

* the evaluation sequence: index, path key, score, scored from history;
* every stage of every candidate: component, output ref, checkpoint key,
  bytes, failure; and each run's metrics and failure;
* the executed/reused totals, the winner and what its commit records;
* the ledger rows, and the logical, physical and dedup-hit bytes;
* which stages executed and which reused, up to the one freedom the pool
  had. Two candidates in flight together that shared an un-checkpointed
  prefix raced for it, and the first thread there executed it. So each
  checkpoint key executes once on both sides, and in the pool it was
  executed by one of the ``workers`` draws starting at the draw that
  executes it here. The pool also appended a candidate's ledger rows
  when its thread finished, so the rows are compared as a multiset, and
  without their ``via`` (the same race decides it, and the winner's rows
  carry the merge commit). At one worker, flags and rows are equal, in
  order.
"""

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.merge import metric_merge
from repro.core.repository import MLCask
from repro.workloads import ALL_WORKLOADS

from engine.delayed import build_delayed_merge_repo
from engine.reference import reference_parallel_search
from helpers import (
    TOY_SPEC,
    build_fig3_history,
    oracle_settings,
    toy_clean,
    toy_extract,
    toy_initial_components,
    toy_model,
)

WORKERS = (1, 2, 3, 4)
BUDGETS = (None, 3)
METHODS = ("prioritized", "random")


def cold_toy_history() -> MLCask:
    """2 clean x 2 extract x 2 model candidates, no checkpoints: every
    prefix is shared by two or four candidates and none has run."""
    repo = MLCask(metric="accuracy", seed=0)
    repo.create_pipeline(TOY_SPEC, toy_initial_components(), run=False)
    repo.branch("toy", "dev", "master")
    repo.commit("toy", {"extract": toy_extract(1)}, branch="dev", run=False)
    repo.commit("toy", {"model": toy_model(1, 0.7)}, branch="dev", run=False)
    repo.commit("toy", {"clean": toy_clean(1)}, branch="master", run=False)
    return repo


TOY_HISTORIES = {
    "fig3": ("toy", build_fig3_history),
    "cold": ("toy", cold_toy_history),
    "wide": (
        "pmerge",
        lambda: build_delayed_merge_repo(stage_seconds=0.0, model_seconds=0.0),
    ),
}


def merged(pipeline, build, **search):
    repo = build()
    return repo, repo.merge(pipeline, "master", "dev", **search)


def stages(outcome) -> list:
    rows = []
    for e in outcome.evaluations:
        run = None
        if e.report is not None:
            run = (
                [
                    (r.stage, r.component_id, r.output_ref, r.checkpoint_key,
                     r.output_bytes, r.failed)
                    for r in e.report.stage_reports
                ],
                e.report.metrics,
                e.report.failed,
                e.report.failure_stage,
                e.report.failure_reason,
            )
        rows.append((e.index, e.path_key, e.score, e.report is None, run))
    return rows


def executed_by(outcome) -> dict:
    """checkpoint key -> the draw whose run executed it (once, at most)."""
    found = {}
    for e in outcome.evaluations:
        for r in e.report.stage_reports if e.report is not None else ():
            if r.executed:
                assert r.checkpoint_key not in found, r.checkpoint_key
                found[r.checkpoint_key] = e.index
    return found


def flags(outcome) -> list:
    return [
        [(r.executed, r.reused) for r in e.report.stage_reports]
        for e in outcome.evaluations
        if e.report is not None
    ]


def summary(repo, outcome) -> tuple:
    commit = outcome.commit
    stats = repo.objects.stats
    return (
        outcome.candidates_total,
        outcome.candidates_pruned_incompatible,
        outcome.candidates_evaluated,
        outcome.components_executed,
        outcome.components_reused,
        commit.score,
        commit.metrics,
        commit.stage_outputs,
        commit.component_versions,
        (stats.logical_bytes, stats.physical_bytes, stats.dedup_hit_bytes),
        len(repo.checkpoints),
    )


def assert_agree(pipeline, build, method, workers, budget, seed):
    search = dict(search=method, workers=workers, budget=budget, seed=seed)
    ours_repo, ours = merged(pipeline, build, **search)
    with mock.patch.object(metric_merge, "run_ordered_search", reference_parallel_search):
        theirs_repo, theirs = merged(pipeline, build, **search)

    assert stages(ours) == stages(theirs)
    assert summary(ours_repo, ours) == summary(theirs_repo, theirs)
    here, pool = executed_by(ours), executed_by(theirs)
    assert here.keys() == pool.keys()
    for key, draw in here.items():
        assert draw <= pool[key] < draw + workers, key
    rows, reference_rows = ours_repo.lineage.records(), theirs_repo.lineage.records()
    assert Counter(replace(r, via="") for r in rows) == Counter(
        replace(r, via="") for r in reference_rows
    )
    if workers == 1:
        assert flags(ours) == flags(theirs)
        assert rows == reference_rows


@pytest.mark.timeout(300)
@oracle_settings(max_examples=25)
@given(
    history=st.sampled_from(sorted(TOY_HISTORIES)),
    method=st.sampled_from(METHODS),
    workers=st.sampled_from(WORKERS),
    budget=st.sampled_from(BUDGETS),
    seed=st.integers(0, 2**16),
)
def test_toy_histories_agree(history, method, workers, budget, seed):
    assert_agree(*TOY_HISTORIES[history], method, workers, budget, seed)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("app", sorted(ALL_WORKLOADS))
def test_bundled_apps_agree(app_history, app, method, workers):
    for budget, seed in zip(BUDGETS, (0, 3)):
        assert_agree(*app_history(app), method, workers, budget, seed)
