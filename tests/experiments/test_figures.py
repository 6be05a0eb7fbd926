"""The figure registry (`repro.experiments.figures`): every claim holds on
the record committed for it, and each one is live — one hand mutation
of that record, of the kind a regression would make, flips its verdict.

Claims evaluated at smoke sizes are checked on the committed smoke
baseline (`benchmarks/results/baselines/`); full-only claims on the
committed full-size record (`benchmarks/results/`). A claim marked
`xfail` must fail on its record, and its mutation must make it hold.
"""

import copy
import json
import os

import pytest

from repro.experiments import figures
from repro.experiments.figures import FIGURES

RESULTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "benchmarks", "results",
)


def committed(name: str, claim) -> dict:
    directory = RESULTS if claim.full_only else os.path.join(RESULTS, "baselines")
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["smoke"] is not claim.full_only, path
    return record


def _swap(node: dict, a: str, b: str) -> None:
    node[a], node[b] = node[b], node[a]


def _set_all(node: dict, key: str, value) -> None:
    for by_key in node.values():
        by_key[key] = value


#: claim name -> an in-place edit of its record that flips the verdict.
MUTATIONS = {
    "modeldb_runs_most_components":
        lambda r: _set_all(r["exact"]["total_executed"], "modeldb", 0),
    "mlcask_skips_the_incompatible_update":
        lambda r: r["exact"]["final_flag"]["dpm"].update(mlcask="ok"),
    "modeldb_reruns_preprocessing":
        lambda r: r["exact"]["composition"]["sa"]["modeldb"].update(preprocessing=0.0),
    "readmission_is_training_dominated":
        lambda r: r["exact"]["composition"]["readmission"]["modeldb"].update(training=1e3),
    "others_are_preprocessing_dominated":
        lambda r: r["exact"]["composition"]["autolearn"]["modeldb"].update(training=1e3),
    "css_ordering":
        lambda r: _swap(r["exact"]["final_bytes"]["readmission"], "mlflow", "mlcask"),
    "css_saving_above_1_5x":
        lambda r: r["exact"]["final_bytes"]["dpm"].update(
            mlcask=r["exact"]["final_bytes"]["dpm"]["modeldb"] / 1.4
        ),
    "chunk_dedup_halves_folder_copies":
        lambda r: _swap(r["exact"]["unit_dedup"], "folder_bytes", "chunked_bytes"),
    "mlcask_merges_fastest":
        lambda r: _swap(r["timing"]["cpt_seconds"]["sa"], "pcpr", "none"),
    "without_pr_minor_advantage":
        lambda r: r["timing"]["cpt_seconds"]["dpm"].update(
            pc_only=1.2 * r["timing"]["cpt_seconds"]["dpm"]["none"]
        ),
    "mlcask_stores_least":
        lambda r: _swap(r["exact"]["css_bytes"]["autolearn"], "pcpr", "pc_only"),
    "every_mode_elects_an_equal_winner":
        lambda r: r["exact"]["winner_score"]["readmission"].update(none=-1.0),
    "gap_is_in_preprocessing":
        lambda r: _swap(r["timing"]["preprocessing_seconds"]["dpm"], "none", "pcpr"),
    "prioritized_scores_decline_with_rank":
        lambda r: r["exact"]["mean_score_by_rank"]["sa"]["prioritized"].reverse(),
    "high_scores_end_early":
        lambda r: r["timing"]["mean_end_time_by_rank"]["dpm"]["prioritized"].reverse(),
    "both_methods_search_every_rank":
        lambda r: r["exact"]["mean_score_by_rank"]["dpm"]["random"].pop(),
    "exhaustive_search_finds_the_optimum":
        lambda r: r["exact"]["found_percent"]["sa"]["random"].update({"1.0": 99.0}),
    # Table I's prioritized and random rows swapped on every app.
    "prioritized_finds_the_optimum_sooner":
        lambda r: [_swap(f, "prioritized", "random") for f in r["exact"]["found_percent"].values()],
    "more_workers_faster_decay":
        lambda r: r["exact"]["loss_decay_ordering"].reverse(),
    "p09_k8_cuts_pipeline_time_below_a_quarter":
        lambda r: r["exact"]["speedup_grid"].update({"p=0.9,k=8": 3.9}),
    "grid_is_the_speedup_formula":
        lambda r: r["exact"]["speedup_grid"].update({"p=0.95,k=8": 6.0}),
    "per_component_reuse_runs_fewer":
        lambda r: r["exact"]["executed"].update(per_component=r["exact"]["executed"]["no_reuse"]),
    "model_only_variants_reuse_the_prefix":
        lambda r: r["exact"]["executed"].update(per_component=11),
    "history_beats_cold_start":
        lambda r: r["exact"]["mean_first_optimal_rank"].update(cold_start=-1.0),
    "history_beats_random":
        lambda r: r["exact"]["mean_first_optimal_rank"].update(history=9.0),
}

CLAIMS = [
    pytest.param(name, claim, id=f"{name}:{claim.name}")
    for name, figure in FIGURES.items()
    for claim in figure.claims
]


@pytest.mark.parametrize("name,claim", CLAIMS)
def test_claim_holds_on_its_committed_record(name, claim):
    # A strict expected failure fails on its record; every other claim holds.
    assert bool(claim.holds(committed(name, claim))) is (claim.xfail is None)


@pytest.mark.parametrize("name,claim", CLAIMS)
def test_one_mutation_flips_the_claim(name, claim):
    record = committed(name, claim)
    mutated = copy.deepcopy(record)
    MUTATIONS[claim.name](mutated)
    assert mutated != record
    assert bool(claim.holds(mutated)) is not bool(claim.holds(record))


def test_every_claim_has_one_mutation_and_a_sourced_statement():
    names = [claim.name for figure in FIGURES.values() for claim in figure.claims]
    assert sorted(names) == sorted(MUTATIONS)
    assert all(
        claim.statement.startswith("§VI") for figure in FIGURES.values()
        for claim in figure.claims
    )


def test_only_the_cost_model_claim_is_expected_to_fail():
    marked = {
        claim.name: claim.xfail for figure in FIGURES.values()
        for claim in figure.claims if claim.xfail
    }
    assert list(marked) == ["readmission_is_training_dominated"]
    assert "ROADMAP item 2" in marked["readmission_is_training_dominated"]


def test_each_figure_has_a_full_and_a_smoke_size():
    for figure in FIGURES.values():
        assert set(figure.sizes) == {"full", "smoke"}


def test_a_family_shares_one_run():
    """Figs. 5-7 read one linear run per (sizes, seed) in a process."""
    figures._linear.cache_clear()
    sizes = FIGURES["fig5_linear_total_time"].sizes["smoke"]
    records = [
        FIGURES[name].run(sizes, 0)
        for name in ("fig5_linear_total_time", "fig6_time_composition", "fig7_storage")
    ]
    info = figures._linear.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert all(set(r) == {"exact", "timing", "table"} for r in records)
