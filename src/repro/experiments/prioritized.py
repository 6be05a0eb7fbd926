"""Prioritized pipeline search experiment: regenerates Fig. 10 and Table I.

Procedure (paper section VII-E): every candidate of the merge search tree
is scored once (via a full PC+PR merge), then 100 trials of each search
method replay the search order over the known scores — "for both search
methods, we denote the process of searching for all the N pipeline
candidates ... as one trial. We perform 100 trials for both search
methods."

Fig. 10: for each search rank (1st-searched, 2nd-searched, ...), the
average end time and average/variance of the candidate score across
trials. Table I: the percentage of trials in which the *optimal* pipeline
has been found within the first 20/40/60/80/100% of searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.merge.prioritized import SearchSimulator
from ..core.merge.search_space import build_merge_scope
from ..core.merge.compatibility import build_compatibility_lut, prune_incompatible
from ..core.repository import MLCask
from ..workloads import ALL_WORKLOADS, apply_nonlinear_history, nonlinear_script
from .report import format_table

DEFAULT_APPS = ("readmission", "dpm", "sa", "autolearn")
TABLE1_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass
class RankPoint:
    """One Fig. 10 point: statistics at a fixed search rank."""

    rank: int
    mean_end_time: float
    mean_score: float
    var_score: float


@dataclass
class SearchExperimentResult:
    n_trials: int
    points: dict = field(default_factory=dict)  # app -> method -> [RankPoint]
    table1: dict = field(default_factory=dict)  # app -> method -> {frac: pct}
    n_candidates: dict = field(default_factory=dict)  # app -> N

    def render_fig10(self) -> str:
        blocks = []
        for app in self.points:
            rows = []
            for method in ("random", "prioritized"):
                for point in self.points[app][method]:
                    rows.append([
                        method,
                        point.rank + 1,
                        round(point.mean_end_time, 4),
                        round(point.mean_score, 4),
                        round(point.var_score, 6),
                    ])
            blocks.append(
                format_table(
                    ["method", "rank", "avg_end_time_s", "avg_score", "var_score"],
                    rows,
                    title=(
                        f"Fig 10 ({app}): prioritized vs random search, "
                        f"{self.n_trials} trials, N={self.n_candidates[app]}"
                    ),
                )
            )
        return "\n\n".join(blocks)

    def render_table1(self) -> str:
        rows = []
        for app in self.table1:
            for method in ("random", "prioritized"):
                percentages = self.table1[app][method]
                rows.append([
                    app,
                    method,
                    *(f"{percentages[frac]:.0f}%" for frac in TABLE1_FRACTIONS),
                ])
        return format_table(
            ["application", "method", "20%", "40%", "60%", "80%", "100%"],
            rows,
            title="Table I: % of trials with the optimal pipeline found",
        )


def _collect_candidate_data(app: str, scale: float, seed: int):
    """Run the real PC+PR merge once; harvest scores, costs, and scope."""
    workload = ALL_WORKLOADS[app](scale=scale, seed=seed)
    repo = MLCask(metric=workload.metric, seed=seed)
    apply_nonlinear_history(repo, nonlinear_script(workload))

    head = repo.head_commit(workload.name, "master")
    merge_head = repo.head_commit(workload.name, "dev")
    scope = build_merge_scope(
        repo.graph, repo.registry, repo.spec(workload.name), head, merge_head
    )

    outcome = repo.merge(workload.name, "master", "dev", mode="pcpr")
    leaf_scores = {
        e.path_key: e.score for e in outcome.evaluations if e.score is not None
    }
    component_costs: dict[str, list[float]] = {}
    for record in repo.checkpoints.records():
        component_costs.setdefault(record.component_id, []).append(record.run_seconds)
    mean_costs = {
        identifier: float(np.mean(values))
        for identifier, values in component_costs.items()
    }
    return scope, leaf_scores, mean_costs


def run_search_experiment(
    apps=DEFAULT_APPS,
    n_trials: int = 100,
    scale: float = 1.0,
    seed: int = 0,
) -> SearchExperimentResult:
    result = SearchExperimentResult(n_trials=n_trials)
    for app in apps:
        scope, leaf_scores, costs = _collect_candidate_data(app, scale, seed)
        lut = build_compatibility_lut(scope)
        simulator = SearchSimulator(
            scope,
            leaf_scores,
            costs,
            mark_history=True,
            prune=lambda root, _lut=lut: prune_incompatible(root, _lut),
        )
        # "Optimal pipeline found" means reaching a candidate achieving the
        # maximum score; with small test sets scores tie, and any tied-best
        # candidate is an optimal pipeline.
        optimum = max(leaf_scores.values()) - 1e-9
        result.points[app] = {}
        result.table1[app] = {}
        n_candidates = len(leaf_scores)
        result.n_candidates[app] = n_candidates

        for method in ("random", "prioritized"):
            trials = simulator.run_trials(method, n_trials, seed=seed + 1)
            points: list[RankPoint] = []
            for rank in range(n_candidates):
                steps = [t.steps[rank] for t in trials if rank < len(t.steps)]
                # a failed candidate (no score) has no place in the mean
                scores = [s.score for s in steps if s.score is not None]
                points.append(
                    RankPoint(
                        rank=rank,
                        mean_end_time=float(np.mean([s.end_time for s in steps])),
                        mean_score=float(np.mean(scores)),
                        var_score=float(np.var(scores)),
                    )
                )
            result.points[app][method] = points

            # each trial's rank of its first optimal step (N: none found)
            first_optimal = [
                next(
                    (s.rank for s in t.steps if s.score is not None and s.score >= optimum),
                    n_candidates,
                )
                for t in trials
            ]
            result.table1[app][method] = {
                fraction: 100.0
                * sum(rank < max(1, math.ceil(fraction * n_candidates)) for rank in first_optimal)
                / len(trials)
                for fraction in TABLE1_FRACTIONS
            }
    return result
