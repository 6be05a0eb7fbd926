"""What a stage is, in absolute terms — on every production executor.

``Executor`` and ``ParallelExecutor`` share one stage body
(``Executor._run_stage``), so the differential tests hold both to the
frozen reference loop; these tests state the contract itself, with no
second implementation in sight: failure containment, lazy loads, fan-in
payloads, the ``reuse=False`` policy, what a single-flight join reports,
and how a failing stage's time is charged.
"""

import threading
import time

import pytest

from repro.core import LibraryComponent, SemVer
from repro.core.checkpoint import ChunkedCheckpointStore
from repro.core.context import ExecutionContext
from repro.core.executor import Executor
from repro.core.pipeline import PipelineInstance
from repro.engine import JOINED, ParallelExecutor, SingleFlight

from helpers import TOY_SPEC, toy_initial_components
from test_parallel_executor import diamond_instance

#: (executor class, workers) — ``workers`` is ``None`` for the sequential
#: executor, which has no such knob.
EXECUTORS = [(Executor, None), (ParallelExecutor, 1), (ParallelExecutor, 2), (ParallelExecutor, 4)]
EXECUTOR_IDS = ["Executor", "Parallel-1", "Parallel-2", "Parallel-4"]


def make_executor(kind, store, **config):
    cls, workers = kind
    if workers is not None:
        config["workers"] = workers
    return cls(store, **config)


def toy_instance(**replacements):
    components = toy_initial_components()
    components.update(replacements)
    return PipelineInstance(spec=TOY_SPEC, components=components)


def raising_extract():
    def boom(table, params, rng):
        raise ValueError("mid-pipeline failure")

    return LibraryComponent(
        name="toy.extract",
        version=SemVer("master", 0, 9),
        fn=boom,
        params={"idx": 9},
        input_schema="toy/clean_v0",
        output_schema="toy/feat_v0",
    )


@pytest.mark.timeout(120)
@pytest.mark.parametrize("kind", EXECUTORS, ids=EXECUTOR_IDS)
class TestStageContract:
    def test_raising_component_fails_the_run_at_its_stage(self, kind):
        store = ChunkedCheckpointStore()
        failing = raising_extract()
        report = make_executor(kind, store).run(
            toy_instance(extract=failing), ExecutionContext(seed=0)
        )
        assert report.failed and report.score is None
        assert report.failure_stage == "extract"
        assert report.failure_reason == "ValueError: mid-pipeline failure"
        # the report ends at the failed stage...
        assert [r.stage for r in report.stage_reports] == ["dataset", "clean", "extract"]
        assert report.stage_reports[-1].failed
        assert not report.stage_reports[-1].executed
        assert report.stage_reports[-1].output_ref == ""
        # ...and nothing was archived for it
        assert failing.identifier not in {r.component_id for r in store.records()}
        assert len(store) == 2

    def test_fully_warm_run_never_loads_a_payload(self, kind, monkeypatch):
        store = ChunkedCheckpointStore()
        executor = make_executor(kind, store)
        instance, context = toy_instance(), ExecutionContext(seed=0)
        executor.run(instance, context)
        loads = []
        original = store.load
        monkeypatch.setattr(
            store, "load", lambda record: loads.append(record.key) or original(record)
        )
        warm = executor.run(instance, context)
        assert warm.n_reused == 4 and warm.n_executed == 0
        assert loads == []

    def test_fan_in_stage_receives_a_payload_per_predecessor(self, kind):
        instance = diamond_instance()
        seen = {}
        join = instance.components["model"]
        inner = join.fn

        def spying(payload, params, rng):
            seen.update(payload)
            return inner(payload, params, rng)

        instance.components["model"] = LibraryComponent(
            name=join.name,
            version=join.version,
            fn=spying,
            params=join.params,
            input_schema=join.input_schema,
            output_schema=join.output_schema,
            is_model=True,
        )
        report = make_executor(kind, ChunkedCheckpointStore()).run(
            instance, ExecutionContext(seed=0)
        )
        assert not report.failed
        assert sorted(seen) == ["left", "right"]
        assert set(seen["left"]) == set(seen["right"]) == {"X", "y"}

    def test_reuse_false_consults_neither_the_store_nor_the_flight(
        self, kind, monkeypatch
    ):
        store = ChunkedCheckpointStore()
        executor = make_executor(kind, store, reuse=False)

        def forbidden(*args, **kwargs):
            raise AssertionError("reuse=False must not look for a checkpoint")

        monkeypatch.setattr(store, "lookup", forbidden)
        if isinstance(executor, ParallelExecutor):
            monkeypatch.setattr(executor.flight, "compute_or_reuse", forbidden)
        instance, context = toy_instance(), ExecutionContext(seed=0)
        first = executor.run(instance, context)
        second = executor.run(instance, context)
        assert not first.failed and not second.failed
        assert first.n_executed == second.n_executed == 4
        assert first.n_reused == second.n_reused == 0

    def test_failing_stage_is_charged_its_input_load_once(self, kind, monkeypatch):
        """The predecessor load is storage time; the run clock starts
        after it, so a stage that fails at once is not charged the load a
        second time as compute."""
        store = ChunkedCheckpointStore()
        context = ExecutionContext(seed=0)
        make_executor(kind, store).run(toy_instance(), context)  # warm: clean is archived
        original = store.load

        def slow_load(record):
            time.sleep(0.2)
            return original(record)

        monkeypatch.setattr(store, "load", slow_load)
        report = make_executor(kind, store).run(
            toy_instance(extract=raising_extract()), context
        )
        failed = report.stage("extract")
        assert failed.failed and report.failure_stage == "extract"
        assert failed.store_seconds >= 0.2
        assert failed.run_seconds < 0.1


class JoiningFlight(SingleFlight):
    """A flight in which another run is always mid-computation: every miss
    is resolved by that run (``leader``), and the caller is told it joined."""

    def __init__(self, leader) -> None:
        super().__init__()
        self.leader = leader

    def compute_or_reuse(self, checkpoints, component, input_ref, compute):
        self.leader()
        return checkpoints.lookup(component, input_ref), JOINED


@pytest.mark.timeout(120)
@pytest.mark.parametrize("workers", [1, 2, 4])
class TestSingleFlightJoin:
    def test_joined_stage_is_a_reuse_never_an_execution(self, workers):
        store = ChunkedCheckpointStore()
        instance, context = toy_instance(), ExecutionContext(seed=0)
        leader = Executor(store)
        flight = JoiningFlight(lambda: leader.run(instance, context))
        follower = ParallelExecutor(store, workers=workers, flight=flight)
        report = follower.run(instance, context)
        assert not report.failed and report.score == 0.5
        assert report.n_executed == 0 and report.n_reused == 4
        assert report.stage_outputs == leader.run(instance, context).stage_outputs
        assert all(r.run_seconds == 0.0 for r in report.stage_reports)

    def test_racing_run_adopts_the_in_flight_computation(self, workers):
        """Real threads: the follower arrives while the leader is inside
        the component, so it must wait and report a reuse — the component
        runs once."""
        entered, release = threading.Event(), threading.Event()
        runs = []
        clean = toy_initial_components()["clean"]

        def gated(table, params, rng):
            runs.append(threading.current_thread().name)
            entered.set()
            assert release.wait(timeout=60)
            return clean.fn(table, params, rng)

        instance = toy_instance(
            clean=LibraryComponent(
                name=clean.name,
                version=clean.version,
                fn=gated,
                params=clean.params,
                input_schema=clean.input_schema,
                output_schema=clean.output_schema,
            )
        )
        store, flight = ChunkedCheckpointStore(), SingleFlight()
        context = ExecutionContext(seed=0)
        reports = {}

        def run(name):
            executor = ParallelExecutor(store, workers=workers, flight=flight)
            reports[name] = executor.run(instance, context)

        leader = threading.Thread(target=run, args=("leader",), name="leader")
        follower = threading.Thread(target=run, args=("follower",), name="follower")
        leader.start()
        assert entered.wait(timeout=60)
        follower.start()
        # the dataset stage is archived, so the follower's next stop is the
        # in-flight ``clean``; should it be slower than this, it finds the
        # record in the store instead — a reuse all the same
        time.sleep(0.2)
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        assert not leader.is_alive() and not follower.is_alive()

        assert len(runs) == 1
        adopted = reports["follower"].stage("clean")
        assert adopted.reused and not adopted.executed
        assert reports["leader"].stage("clean").executed
        assert reports["follower"].stage_outputs == reports["leader"].stage_outputs
        assert flight.stats.computed == 4
