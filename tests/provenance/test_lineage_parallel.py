"""Differential lineage: the ledger is bit-identical across executors.

Every executor funnels provenance through the same
``LineageLedger.record_run`` walk over the topologically-ordered stage
reports, on the calling thread — so for any workload, seed, and worker
count the ledgers must compare equal record-for-record (record identity
already excludes wall/cpu timing). The expectation comes from the frozen
reference loop (``tests/engine/reference.py``), since both production
executors now share one stage body; this is what still establishes
ledger *order* under a scheduler. Follows the differential harness of
``tests/engine/test_parallel_executor.py``.
"""

import pytest

from repro.core.checkpoint import ChunkedCheckpointStore
from repro.core.context import ExecutionContext
from repro.core.executor import Executor
from repro.core.pipeline import PipelineInstance
from repro.engine import ParallelExecutor
from repro.provenance import REUSED, LineageLedger
from repro.workloads import ALL_WORKLOADS

from engine.reference import ReferenceExecutor
from helpers import TOY_SPEC, toy_initial_components

WORKER_COUNTS = (1, 2, 4)


#: ``workers`` value selecting the frozen reference loop / the production
#: sequential executor in :func:`run_with_ledger`.
REFERENCE = "reference"
PRODUCTION = (None, *WORKER_COUNTS)


def run_with_ledger(instance, context, metric, workers=None, runs=1):
    """Fresh store + fresh ledger; return the ledger after ``runs`` runs."""
    store = ChunkedCheckpointStore()
    ledger = LineageLedger()
    if workers == REFERENCE:
        executor = ReferenceExecutor(store, metric=metric, lineage=ledger)
    elif workers is None:
        executor = Executor(store, metric=metric, lineage=ledger)
    else:
        executor = ParallelExecutor(
            store, metric=metric, workers=workers, lineage=ledger
        )
    for _ in range(runs):
        executor.run(instance, context)
    return ledger


def assert_lineage_equivalent(instance, seeds=(0,), metric="accuracy"):
    """Reference vs every production executor's ledger, cold and warm,
    per seed."""
    for seed in seeds:
        context = ExecutionContext(seed=seed, metric=metric)
        expected_cold = run_with_ledger(instance, context, metric, REFERENCE).records()
        expected_warm = run_with_ledger(
            instance, context, metric, REFERENCE, runs=2
        ).records()
        for workers in PRODUCTION:
            cold = run_with_ledger(instance, context, metric, workers=workers)
            assert cold.records() == expected_cold, (workers, seed)
            warm = run_with_ledger(
                instance, context, metric, workers=workers, runs=2
            )
            assert warm.records() == expected_warm, (workers, seed)


class TestBundledWorkloads:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_initial_pipeline_ledgers_identical(self, name):
        workload = ALL_WORKLOADS[name](scale=0.3, seed=0)
        instance = PipelineInstance(
            spec=workload.spec, components=workload.initial_components()
        )
        assert_lineage_equivalent(instance, metric=workload.metric)

    @pytest.mark.timeout(300)
    def test_updated_pipeline_ledgers_identical_across_seeds(self):
        workload = ALL_WORKLOADS["readmission"](scale=0.3, seed=0)
        components = workload.initial_components()
        components[workload.model_stage] = workload.model_version(2)
        instance = PipelineInstance(spec=workload.spec, components=components)
        assert_lineage_equivalent(instance, seeds=(0, 7), metric=workload.metric)


class TestFailurePrefix:
    def _failing_chain(self):
        from repro.core import LibraryComponent, SemVer

        def boom(table, params, rng):
            raise ValueError("mid-pipeline failure")

        components = toy_initial_components()
        components["extract"] = LibraryComponent(
            name="toy.extract",
            version=SemVer("master", 0, 9),
            fn=boom,
            params={"idx": 9},
            input_schema="toy/clean_v0",
            output_schema="toy/feat_v0",
        )
        return PipelineInstance(spec=TOY_SPEC, components=components)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_failed_run_records_the_same_prefix(self, workers):
        """Only completed stages get lineage; the failure-trimmed prefix
        must be the same under both executors."""
        instance = self._failing_chain()
        context = ExecutionContext(seed=0, metric="accuracy")
        expected = run_with_ledger(instance, context, "accuracy", REFERENCE).records()
        for production in (None, workers):
            actual = run_with_ledger(
                instance, context, "accuracy", workers=production
            ).records()
            assert actual == expected
            assert [r.stage for r in actual] == ["dataset", "clean"]


class TestReuseRecords:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", [None, *WORKER_COUNTS])
    def test_warm_run_appends_exactly_one_reuse_record_per_stage(self, workers):
        """SingleFlight reuses append reuse-records exactly once: the warm
        run adds exactly n_stages records, all via="reused"."""
        instance = PipelineInstance(
            spec=TOY_SPEC, components=toy_initial_components()
        )
        context = ExecutionContext(seed=0, metric="accuracy")
        store = ChunkedCheckpointStore()
        ledger = LineageLedger()
        if workers is None:
            executor = Executor(store, metric="accuracy", lineage=ledger)
        else:
            executor = ParallelExecutor(
                store, metric="accuracy", workers=workers, lineage=ledger
            )
        executor.run(instance, context)
        cold_len = len(ledger)
        assert cold_len == len(TOY_SPEC.stages)
        executor.run(instance, context)
        warm_records = ledger.records()[cold_len:]
        assert len(warm_records) == len(TOY_SPEC.stages)
        assert all(r.via == REUSED for r in warm_records)
