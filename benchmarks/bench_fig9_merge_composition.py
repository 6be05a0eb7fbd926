"""Fig. 9: pipeline time composition during the merge operation.

Benchmarks one candidate evaluation with PR reuse (the unit whose
repetition the composition aggregates)."""

from conftest import BENCH_SEED, write_bench_record, write_result

from repro.core.context import ExecutionContext
from repro.core.executor import Executor
from repro.core.merge import (
    build_compatibility_lut,
    build_merge_scope,
    build_search_tree,
    leaves,
    mark_checkpointed_nodes,
    prune_incompatible,
    run_candidate,
)
from repro.core.repository import MLCask
from repro.workloads import apply_nonlinear_history, nonlinear_script, readmission_workload


def test_fig9_composition(merge_result, benchmark):
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
    root = build_search_tree(scope)
    prune_incompatible(root, build_compatibility_lut(scope))
    mark_checkpointed_nodes(root, scope)
    pending = [leaf for leaf in leaves(root) if not leaf.executed]
    executor = Executor(repo.checkpoints, metric=workload.metric, reuse=True)
    context = ExecutionContext(seed=BENCH_SEED, metric=workload.metric)
    state = {"i": 0}

    def evaluate_one_candidate():
        leaf = pending[state["i"] % len(pending)]
        state["i"] += 1
        return run_candidate(leaf, scope, executor, context)

    benchmark.pedantic(evaluate_one_candidate, rounds=3, iterations=1)

    write_result("fig9_merge_composition.txt", merge_result.render_fig9())
    write_bench_record(
        "fig9_merge_composition",
        {
            "preprocessing_seconds": {
                app: {
                    mode: measure.preprocessing_seconds
                    for mode, measure in by_mode.items()
                }
                for app, by_mode in merge_result.measures.items()
            }
        },
    )

    for app, by_mode in merge_result.measures.items():
        # Paper: "The difference in pipeline time among the three systems
        # are mainly attributed to pre-processing"; training comparable.
        preproc_gap = (
            by_mode["none"].preprocessing_seconds
            - by_mode["pcpr"].preprocessing_seconds
        )
        assert preproc_gap >= 0, app
