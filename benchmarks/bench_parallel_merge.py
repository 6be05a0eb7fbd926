"""Parallel merge search: wall-clock speedup with deterministic results.

The merge operation's bottleneck is candidate pipeline execution (paper
section VII-D); the parallel engine (ISSUE 3) evaluates several candidate
leaves concurrently while the single-flight checkpoint layer keeps every
``(component fingerprint, input ref)`` pair at-most-once. This bench runs
one cold multi-leaf prioritized merge search at 1, 2, and 4 workers.

Targets (ISSUE 3): >= 2x wall-clock speedup with 4 workers over the
sequential search, with *identical* candidate scores, stage output refs,
winner, and executed/reused totals at every worker count. Component cost
is simulated service delay (GIL-releasing sleeps, like the cost-model
benches), so the speedup reproduces even on single-core CI — under smoke
mode the delays shrink and scheduling overhead dominates, so only the
equivalence half is asserted there.
"""

from conftest import BENCH_SEED, BENCH_SMOKE, write_bench_record, write_result

from repro.experiments import run_parallel_merge_experiment

if BENCH_SMOKE:
    # n_clean >= 2 keeps both branches ahead of the ancestor (a one-sided
    # history would fast-forward and search nothing).
    SHAPE = dict(n_clean=2, n_extract=2, n_model=2)  # 8 leaves
    COSTS = dict(stage_seconds=0.005, model_seconds=0.01)
else:
    SHAPE = dict(n_clean=2, n_extract=3, n_model=6)  # 36 leaves
    COSTS = dict(stage_seconds=0.04, model_seconds=0.08)


def test_parallel_merge_speedup_and_equivalence():
    result = run_parallel_merge_experiment(
        workers=(1, 2, 4), seed=BENCH_SEED, **SHAPE, **COSTS
    )
    by_workers = {row.workers: row for row in result.rows}
    write_result("parallel_merge.txt", result.render_table())
    write_bench_record(
        "parallel_merge",
        {
            "equivalent": result.equivalent,
            "speedup": {
                str(row.workers): result.speedup_at(row.workers)
                for row in result.rows
            },
            # The sequential search's totals; every worker count is held
            # to them below, and compare_baselines holds them exactly
            # across commits — a lost reuse or a stage counted twice
            # changes them.
            "totals": {
                "evaluated": by_workers[1].evaluated,
                "executed": by_workers[1].executed,
                "reused": by_workers[1].reused,
            },
        },
    )

    # Determinism is asserted at every scale: all worker counts must agree
    # on every candidate's score, every stage output ref, the winner, and
    # the executed/reused totals.
    assert result.equivalent, "worker counts diverged on scores/output refs"
    for row in result.rows:
        assert row.winner_score == by_workers[1].winner_score
        assert row.evaluated == by_workers[1].evaluated
        assert row.executed == by_workers[1].executed
        assert row.reused == by_workers[1].reused

    if not BENCH_SMOKE:
        assert result.speedup_at(4) >= 2.0, (
            f"4-worker speedup {result.speedup_at(4):.2f}x below the 2x target"
        )
        assert result.speedup_at(2) >= 1.3, (
            f"2-worker speedup {result.speedup_at(2):.2f}x shows no concurrency"
        )
