"""Single-flight dedup tests: each (component, input) computed at most once.

Every merge candidate runs on the calling thread, so the flight's one
remaining job is inside a DAG run: two ready stages that bind the same
component to the same input must execute that pair once, asserted via
execution-counting components, at every worker count.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import LibraryComponent, PipelineSpec, SemVer
from repro.core.checkpoint import ChunkedCheckpointStore
from repro.core.context import ExecutionContext
from repro.core.pipeline import PipelineInstance
from repro.engine import COMPUTED, HIT, JOINED, ParallelExecutor, SingleFlight
from repro.provenance import LineageLedger

from helpers import RAW_SCHEMA, toy_dataset
from test_parallel_executor import report_fingerprint


class ExecutionCounter:
    """Thread-safe per-key invocation counter shared by counting components."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: dict[str, int] = {}

    def bump(self, key: str) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1


def counting_chain(counter: ExecutionCounter):
    """dataset -> clean -> model, every library stage counting its runs."""

    def clean_fn(table, params, rng):
        counter.bump("clean")
        return table.with_column("f0", table["f0"] + 1.0)

    def model_fn(table, params, rng):
        counter.bump("model")
        return {"metrics": {"accuracy": 0.75}, "params": {}}

    spec = PipelineSpec.chain("counted", ["dataset", "clean", "model"])
    components = {
        "dataset": toy_dataset(),
        "clean": LibraryComponent(
            name="counted.clean", version=SemVer("master", 0, 0), fn=clean_fn,
            params={}, input_schema=RAW_SCHEMA, output_schema="counted/clean_v0",
        ),
        "model": LibraryComponent(
            name="counted.model", version=SemVer("master", 0, 0), fn=model_fn,
            params={}, input_schema="counted/clean_v0",
            output_schema="counted/model", is_model=True,
        ),
    }
    return PipelineInstance(spec=spec, components=components)


def twin_instance(counter: ExecutionCounter, entered: threading.Event):
    """dataset feeding two stages that bind one component — the same
    ``(component, input)`` pair twice in one run — joined by a model."""

    def twin_fn(table, params, rng):
        counter.bump("twin")
        entered.set()
        time.sleep(0.05)  # the other stage reaches the flight meanwhile
        return table.with_column("f0", table["f0"] * 2.0)

    def join_fn(payload, params, rng):
        counter.bump("join")
        same = np.array_equal(payload["left"]["f0"], payload["right"]["f0"])
        return {"metrics": {"accuracy": float(same)}, "params": {}}

    twin = LibraryComponent(
        name="twin.clean", version=SemVer("master", 0, 0), fn=twin_fn,
        params={}, input_schema=RAW_SCHEMA, output_schema="twin/clean_v0",
    )
    spec = PipelineSpec(
        name="twin",
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
        "left": twin,
        "right": twin,
        "model": LibraryComponent(
            name="twin.join", version=SemVer("master", 0, 0), fn=join_fn,
            params={}, input_schema="twin/clean_v0", output_schema="twin/model",
            is_model=True,
        ),
    }
    return PipelineInstance(spec=spec, components=components)


class TestTwoStagesOneKey:
    @pytest.mark.timeout(120)
    def test_one_stage_executes_and_the_other_reuses_at_any_worker_count(
        self, monkeypatch
    ):
        """``right`` starts only once ``left`` is inside the component, so
        ``left`` leads the flight at two workers (``right`` joins it, or
        finds the record it saved) just as it runs first at one."""
        gate = {}
        run_stage = ParallelExecutor._run_stage

        def left_first(executor, stage, *args):
            if stage == "right":
                assert gate["entered"].wait(timeout=60)
            return run_stage(executor, stage, *args)

        monkeypatch.setattr(ParallelExecutor, "_run_stage", left_first)
        outcomes = {}
        for workers in (1, 2):
            counter, gate["entered"] = ExecutionCounter(), threading.Event()
            ledger = LineageLedger()
            executor = ParallelExecutor(
                ChunkedCheckpointStore(), workers=workers, lineage=ledger
            )
            report = executor.run(
                twin_instance(counter, gate["entered"]), ExecutionContext(seed=0)
            )
            assert counter.counts == {"twin": 1, "join": 1}
            assert report.stage("left").executed and report.stage("right").reused
            assert report.score == 1.0
            assert executor.flight.stats.computed == 3  # dataset, left, model
            outcomes[workers] = (report_fingerprint(report), ledger.records())
        assert outcomes[1] == outcomes[2]


class TestRerun:
    @pytest.mark.timeout(60)
    def test_sequential_rerun_is_all_reuse(self):
        counter = ExecutionCounter()
        instance = counting_chain(counter)
        checkpoints = ChunkedCheckpointStore()
        executor = ParallelExecutor(checkpoints, metric="accuracy")
        executor.run(instance, ExecutionContext(seed=0))
        report = executor.run(instance, ExecutionContext(seed=0))
        assert counter.counts == {"clean": 1, "model": 1}
        assert report.n_reused == 3 and report.n_executed == 0


class TestSingleFlightUnit:
    def _store_and_component(self):
        instance = counting_chain(ExecutionCounter())
        return ChunkedCheckpointStore(), instance.component("clean")

    @pytest.mark.timeout(60)
    def test_follower_blocks_and_joins_leader(self):
        checkpoints, component = self._store_and_component()
        flight = SingleFlight()
        leader_entered = threading.Event()
        release_leader = threading.Event()
        results = {}

        def compute():
            leader_entered.set()
            assert release_leader.wait(timeout=30)
            return checkpoints.save(component, "input-ref", {"x": 1}, run_seconds=0.0)

        def leader():
            results["leader"] = flight.compute_or_reuse(
                checkpoints, component, "input-ref", compute
            )

        follower_calling = threading.Event()

        def follower():
            assert leader_entered.wait(timeout=30)
            follower_calling.set()
            results["follower"] = flight.compute_or_reuse(
                checkpoints, component, "input-ref",
                lambda: pytest.fail("follower must never compute"),
            )

        threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
        threads[0].start()
        threads[1].start()
        leader_entered.wait(timeout=30)
        assert flight.in_flight() == 1
        follower_calling.wait(timeout=30)
        time.sleep(0.05)  # let the follower register against the in-flight call
        release_leader.set()
        for t in threads:
            t.join(timeout=30)
        record, via = results["leader"]
        assert via == COMPUTED
        joined_record, joined_via = results["follower"]
        # JOINED except under extreme scheduling delay, where the follower
        # arrives after completion and takes the store-hit path; either way
        # it adopted the leader's record without computing.
        assert joined_via in (JOINED, HIT)
        assert joined_record == record
        assert flight.in_flight() == 0

    def test_store_hit_short_circuits(self):
        checkpoints, component = self._store_and_component()
        flight = SingleFlight()
        saved = checkpoints.save(component, "input-ref", {"x": 1}, run_seconds=0.0)
        record, via = flight.compute_or_reuse(
            checkpoints, component, "input-ref",
            lambda: pytest.fail("hit must not compute"),
        )
        assert via == HIT and record == saved

    @pytest.mark.timeout(60)
    def test_leader_failure_propagates_to_followers_then_clears(self):
        checkpoints, component = self._store_and_component()
        flight = SingleFlight()
        leader_entered = threading.Event()
        release_leader = threading.Event()
        outcomes = {}

        def failing_compute():
            leader_entered.set()
            assert release_leader.wait(timeout=30)
            raise ValueError("component exploded")

        follower_calling = threading.Event()

        def runner(name, compute, gate=None):
            try:
                if gate is not None:
                    gate.set()
                outcomes[name] = flight.compute_or_reuse(
                    checkpoints, component, "input-ref", compute
                )
            except ValueError as error:
                outcomes[name] = error

        leader = threading.Thread(target=runner, args=("leader", failing_compute))
        follower = threading.Thread(
            target=runner,
            args=(
                "follower",
                lambda: checkpoints.save(
                    component, "input-ref", {"x": 9}, run_seconds=0.0
                ),
                follower_calling,
            ),
        )
        leader.start()
        leader_entered.wait(timeout=30)
        follower.start()
        follower_calling.wait(timeout=30)
        time.sleep(0.05)  # let the follower register against the in-flight call
        release_leader.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        assert isinstance(outcomes["leader"], ValueError)
        if isinstance(outcomes["follower"], tuple):
            # Extreme scheduling delay: the follower arrived after the
            # failure cleared and led its own compute — the contract allows
            # it (failures must not poison the key).
            _, via = outcomes["follower"]
            assert via == COMPUTED
        else:
            assert outcomes["follower"] is outcomes["leader"]  # the same failure
        assert flight.stats.failures == 1
        assert flight.in_flight() == 0

        # A failed flight leaves no poison: the next attempt recomputes
        # (or hits the store if the delayed-follower branch saved above).
        record, via = flight.compute_or_reuse(
            checkpoints, component, "input-ref",
            lambda: checkpoints.save(component, "input-ref", {"x": 2}, run_seconds=0.0),
        )
        assert record is not None
        if not isinstance(outcomes["follower"], tuple):
            assert via == COMPUTED
