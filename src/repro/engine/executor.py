"""Parallel pipeline executor: DAG-parallel stages + single-flight reuse.

A :class:`repro.core.executor.Executor` — the stage body and the report
assembly are inherited, not re-implemented — that differs in exactly two
places:

* ``run`` hands the stages of a pipeline that branches to a
  :class:`~repro.engine.scheduler.DagScheduler`, so stages with no
  dependency between them execute concurrently (a chain — every bundled
  pipeline — has no such stages and runs inline, whatever ``workers``);
* a checkpoint miss is resolved through the executor's own
  :class:`~repro.engine.single_flight.SingleFlight`, so two ready stages
  that bind the same component to the same input (nothing in a
  :class:`~repro.core.pipeline.PipelineInstance` forbids it) execute
  that ``(component fingerprint, input ref)`` pair once — the later
  arrival blocks on the in-flight computation and records a checkpoint
  *reuse*, preserving the PR pruning invariant under concurrency.

Determinism contract (what the differential tests establish against the
frozen reference loop in ``tests/engine/reference.py``): for any worker
count, a run produces the same stage output refs, metrics, score, reuse
flags, and failure stage given the same starting checkpoint state.
Output refs are content-addressed and every component draws a seeded RNG
from its own fingerprint, so execution *order* cannot leak into results.
On failure the report is the topological prefix ending at the earliest
failed stage even if concurrent independent stages beyond it already ran
(their checkpoints persist harmlessly; the store is content-addressed).

Only wall-clock fields (``run_seconds``/``store_seconds``/
``cpu_seconds``) may differ between worker counts; nothing else may.
"""

from __future__ import annotations

from ..core.checkpoint import CheckpointStore
from ..core.context import ExecutionContext
from ..core.executor import Executor, RunReport, _RunState
from ..core.pipeline import PipelineInstance
from .scheduler import DagScheduler
from .single_flight import COMPUTED, SingleFlight


class ParallelExecutor(Executor):
    """Runs pipeline instances with stage-level parallelism.

    ``workers=1``, or a chain at any ``workers``, executes inline in
    topological order (no threads) but still routes checkpoint misses
    through the executor's single-flight layer.
    """

    def __init__(
        self,
        checkpoints: CheckpointStore,
        metric: str = "accuracy",
        reuse: bool = True,
        workers: int = 1,
        lineage=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(checkpoints, metric=metric, reuse=reuse, lineage=lineage)
        self.workers = workers
        self.flight = SingleFlight()

    @classmethod
    def from_executor(
        cls, executor: Executor, workers: int | None = None
    ) -> "ParallelExecutor":
        """Adopt an executor's configuration (store, metric, reuse
        policy, ledger) — what ``MLCask.run_head`` does with the
        repository's executor. ``workers`` left as ``None`` inherits the
        executor's own (default 1); when given, it is honored even for an
        already-parallel executor — a requested worker count is never
        silently dropped."""
        if workers is None:
            workers = getattr(executor, "workers", 1)
        if isinstance(executor, cls) and workers == executor.workers:
            return executor
        return cls(
            executor.checkpoints,
            metric=executor.metric,
            reuse=executor.reuse,
            workers=workers,
            lineage=executor.lineage,
        )

    # ----------------------------------------------------------------- run
    def run(
        self,
        instance: PipelineInstance,
        context: ExecutionContext | None = None,
    ) -> RunReport:
        context = context or ExecutionContext(metric=self.metric)
        state = _RunState(instance)
        deps = {stage: instance.spec.predecessors(stage) for stage in state.order}
        # Width 1: each stage consumes the one before it, so no two stages
        # are ever ready together and a pool would only add a thread hop.
        chain = all(a in deps[b] for a, b in zip(state.order, state.order[1:]))
        if self.workers == 1 or chain:
            for stage in state.order:
                if not self._run_stage(stage, instance, context, state):
                    break
        else:
            DagScheduler(state.order, deps, self.workers).run(
                lambda stage: self._run_stage(stage, instance, context, state)
            )
        return self._report(instance, context, state)

    def _resolve_miss(self, component, input_ref: str, compute):
        """Through the flight: a join, or a hit the store learned between
        the stage's lookup and the flight's re-check, is a reuse — exactly
        as if the other stage had finished before this one started."""
        record, via = self.flight.compute_or_reuse(
            self.checkpoints, component, input_ref, compute
        )
        return record, via == COMPUTED
