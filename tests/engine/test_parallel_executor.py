"""Differential equivalence: both executors vs the frozen reference loop.

The engine's determinism contract — for any worker count and seed, a run
produces the same stage output refs, metrics, score, reuse flags, and
failure stage as the reference. ``Executor`` and ``ParallelExecutor``
share one stage body, so neither can be the other's oracle: both are
compared against ``reference_run`` (``tests/engine/reference.py``, the
sequential loop as it stood before the merge), which is what still
establishes scheduling, prefix trimming and single-flight. Asserted here
across all bundled workloads, several worker counts and seeds, DAG-shaped
specs, warm-checkpoint reruns, and the failure paths.
"""

import numpy as np
import pytest

from repro.core import LibraryComponent, PipelineSpec, SemVer
from repro.core.checkpoint import ChunkedCheckpointStore
from repro.core.context import ExecutionContext
from repro.core.executor import Executor
from repro.core.pipeline import PipelineInstance
from repro.engine import ParallelExecutor
from repro.errors import ComponentError
from repro.workloads import ALL_WORKLOADS

from engine.reference import reference_run
from helpers import (
    RAW_SCHEMA,
    TOY_SPEC,
    toy_dataset,
    toy_extract,
    toy_initial_components,
    toy_model,
)

WORKER_COUNTS = (1, 2, 4)


def report_fingerprint(report):
    """Everything the contract covers (wall-clock fields excluded)."""
    return {
        "pipeline": report.pipeline,
        "stages": [
            (
                r.stage,
                r.component_id,
                r.executed,
                r.reused,
                r.failed,
                r.is_model,
                r.output_ref,
                r.output_bytes,
                r.checkpoint_key,
            )
            for r in report.stage_reports
        ],
        "metrics": report.metrics,
        "score": report.score,
        "failed": report.failed,
        "failure_stage": report.failure_stage,
        "failure_reason": report.failure_reason,
    }


def production_executors(worker_counts=WORKER_COUNTS, **config):
    """``(label, executor)`` for every production executor, each on a
    fresh store: the sequential one, then one engine per worker count."""
    yield "sequential", Executor(ChunkedCheckpointStore(), **config)
    for workers in worker_counts:
        yield workers, ParallelExecutor(
            ChunkedCheckpointStore(), workers=workers, **config
        )


def assert_equivalent(instance, seeds=(0,), metric="accuracy"):
    """Run the reference vs every production executor on fresh stores;
    then once more on the warm store (the all-reuse path) — both runs
    must match per seed."""
    for seed in seeds:
        context = ExecutionContext(seed=seed, metric=metric)
        reference_store = ChunkedCheckpointStore()
        expected_cold = report_fingerprint(
            reference_run(reference_store, instance, context, metric=metric)
        )
        expected_warm = report_fingerprint(
            reference_run(reference_store, instance, context, metric=metric)
        )
        for label, executor in production_executors(metric=metric):
            cold = report_fingerprint(executor.run(instance, context))
            warm = report_fingerprint(executor.run(instance, context))
            assert cold == expected_cold, (label, seed)
            assert warm == expected_warm, (label, seed)


class TestBundledWorkloads:
    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_initial_pipeline_equivalent(self, name):
        workload = ALL_WORKLOADS[name](scale=0.3, seed=0)
        instance = PipelineInstance(
            spec=workload.spec, components=workload.initial_components()
        )
        assert_equivalent(instance, metric=workload.metric)

    @pytest.mark.timeout(300)
    def test_updated_pipeline_equivalent_across_seeds(self):
        workload = ALL_WORKLOADS["readmission"](scale=0.3, seed=0)
        components = workload.initial_components()
        components[workload.model_stage] = workload.model_version(2)
        instance = PipelineInstance(spec=workload.spec, components=components)
        assert_equivalent(instance, seeds=(0, 7), metric=workload.metric)


def diamond_instance(fail_branch=None):
    """dataset feeding two independent branches joined by a model — the
    DAG shape whose independent stages the engine runs concurrently."""

    def branch_fn(table, params, rng):
        if params.get("boom"):
            raise RuntimeError("branch exploded")
        return {
            "X": table.numeric_matrix(["f0", "f1"]) * params["k"],
            "y": table["label"],
        }

    def join_fn(payload, params, rng):
        acc = float(
            abs(np.mean(payload["left"]["X"]) - np.mean(payload["right"]["X"]))
        ) % 1.0
        return {"metrics": {"accuracy": acc}, "params": {}}

    def branch(name, k):
        return LibraryComponent(
            name=f"dag.{name}",
            version=SemVer("master", 0, 0),
            fn=branch_fn,
            params={"k": k, "boom": name == fail_branch},
            input_schema=RAW_SCHEMA,
            output_schema=f"dag/{name}_v0",
        )

    spec = PipelineSpec(
        name="dag",
        stages=("dataset", "left", "right", "model"),
        edges=(
            ("dataset", "left"),
            ("dataset", "right"),
            ("left", "model"),
            ("right", "model"),
        ),
    )
    components = {
        "dataset": toy_dataset(),
        "left": branch("left", 2.0),
        "right": branch("right", 3.0),
        "model": LibraryComponent(
            name="dag.join",
            version=SemVer("master", 0, 0),
            fn=join_fn,
            params={},
            input_schema="*",
            output_schema="dag/model",
            is_model=True,
        ),
    }
    return PipelineInstance(spec=spec, components=components)


class TestDagPipelines:
    @pytest.mark.timeout(120)
    def test_diamond_equivalent(self):
        assert_equivalent(diamond_instance(), seeds=(0, 3))

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("fail_branch", ["left", "right"])
    def test_diamond_branch_failure_equivalent(self, fail_branch):
        """A failing branch must yield the sequential report exactly: the
        topological prefix up to the earliest failed stage, its reason,
        nothing after — even though the sibling branch may have run."""
        instance = diamond_instance(fail_branch=fail_branch)
        context = ExecutionContext(seed=0)
        expected = report_fingerprint(
            reference_run(ChunkedCheckpointStore(), instance, context)
        )
        for label, executor in production_executors():
            actual = report_fingerprint(executor.run(instance, context))
            assert actual == expected, label


class TestChainFailures:
    def _failing_chain(self):
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
    def test_component_exception_equivalent(self, workers):
        instance = self._failing_chain()
        context = ExecutionContext(seed=0)
        expected = report_fingerprint(
            reference_run(ChunkedCheckpointStore(), instance, context)
        )
        for _, executor in production_executors((workers,)):
            actual = report_fingerprint(executor.run(instance, context))
            assert actual == expected
            assert actual["failure_stage"] == "extract"
            assert "mid-pipeline failure" in actual["failure_reason"]

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_runtime_incompatibility_equivalent(self, workers):
        """Schema mismatch discovered at the consumer (Definition 4): the
        engine must fail the same stage with no reason, like the
        sequential executor's mid-run check."""
        components = toy_initial_components()
        components["extract"] = toy_extract(0, variant=1)  # feat_v1 producer
        components["model"] = toy_model(0, 0.5, in_variant=0)  # feat_v0 consumer
        instance = PipelineInstance(spec=TOY_SPEC, components=components)
        context = ExecutionContext(seed=0)
        expected = report_fingerprint(
            reference_run(ChunkedCheckpointStore(), instance, context)
        )
        for _, executor in production_executors((workers,)):
            actual = report_fingerprint(executor.run(instance, context))
            assert actual == expected
            assert actual["failed"] and actual["failure_stage"] == "model"
            assert actual["failure_reason"] is None

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_no_metrics_raises_like_sequential(self, workers):
        spec = PipelineSpec.chain("nometrics", ["dataset", "clean"])
        components = {
            "dataset": toy_dataset(),
            "clean": toy_initial_components()["clean"],
        }
        instance = PipelineInstance(spec=spec, components=components)
        context = ExecutionContext(seed=0)
        with pytest.raises(ComponentError, match="produced no metrics"):
            reference_run(ChunkedCheckpointStore(), instance, context)
        for _, executor in production_executors((workers,)):
            with pytest.raises(ComponentError, match="produced no metrics"):
                executor.run(instance, context)


class TestConfiguration:
    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(ChunkedCheckpointStore(), workers=0)

    def test_from_executor_adopts_configuration(self):
        store = ChunkedCheckpointStore()
        sequential = Executor(store, metric="f1", reuse=False)
        engine = ParallelExecutor.from_executor(sequential, workers=3)
        assert engine.checkpoints is store
        assert engine.metric == "f1" and engine.reuse is False
        assert engine.workers == 3
        # Already-parallel executors pass through unchanged...
        assert ParallelExecutor.from_executor(engine) is engine
        # ...unless the caller asks for a different worker count, which is
        # honored (same store, never silently dropped); every executor
        # owns its flight.
        widened = ParallelExecutor.from_executor(engine, workers=8)
        assert widened is not engine
        assert widened.workers == 8
        assert widened.checkpoints is store and widened.flight is not engine.flight

    @pytest.mark.timeout(120)
    def test_reuse_false_recomputes_like_modeldb(self):
        """The baselines' policy (rerun everything) must survive the
        engine: no lookup, no single-flight join, a second run recomputes."""
        instance = PipelineInstance(
            spec=TOY_SPEC, components=toy_initial_components()
        )
        context = ExecutionContext(seed=0)
        store = ChunkedCheckpointStore()
        engine = ParallelExecutor(store, reuse=False, workers=2)
        first = engine.run(instance, context)
        second = engine.run(instance, context)
        assert first.n_executed == second.n_executed == 4
        assert first.n_reused == second.n_reused == 0
