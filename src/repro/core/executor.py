"""Pipeline executor: runs instances with checkpoint reuse and timing.

This is the engine under both MLCask and the simulated baselines; what
differs between systems is only the policy knobs:

* ``reuse=True``  + chunked checkpoints  -> MLCask / MLflow behaviour
* ``reuse=False`` + folder checkpoints   -> ModelDB behaviour (rerun all)

The executor produces a :class:`RunReport` whose per-stage timings feed the
paper's evaluation metrics directly: execution time (component compute),
storage time (data preparation/transfer, i.e. time inside the checkpoint
store), and pipeline time (their sum) — section VII-B.

Incompatible adjacent components are detected *at the moment the consumer
is reached*, mirroring how the baselines "run the pipeline until the
compatibility error occurs at the last component" (section VII-C); callers
that want MLCask's behaviour validate statically before running.

The paper's section V ``score()`` convention (:func:`score_from_metric`) lives here,
re-exported by ``repro.ml.metrics``: the merge ranks by it, and ``core`` never imports ``ml``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..errors import ComponentError
from ..storage.hashing import fingerprint_many
from .checkpoint import CheckpointStore
from .component import DatasetComponent, LibraryComponent
from .context import ExecutionContext
from .pipeline import PipelineInstance

HIGHER_IS_BETTER = {"accuracy", "auc", "f1", "score"}
LOWER_IS_BETTER = {"mse", "log_loss"}


def score_from_metric(metric_name: str, value: float) -> float:
    """Convert a metric value to a higher-is-better score (section V)."""
    if metric_name in HIGHER_IS_BETTER:
        return float(value)
    if metric_name in LOWER_IS_BETTER:
        # Paper: "we can use score = 1/MSE as a score function".
        return float(1.0 / max(value, 1e-12))
    raise ValueError(f"unknown metric {metric_name!r}")


@dataclass
class StageReport:
    """What happened at one stage of one run."""

    stage: str
    component_id: str
    executed: bool = False
    reused: bool = False
    failed: bool = False
    is_model: bool = False
    run_seconds: float = 0.0
    store_seconds: float = 0.0
    cpu_seconds: float = 0.0
    output_ref: str = ""
    output_bytes: int = 0
    checkpoint_key: str = ""


@dataclass
class RunReport:
    """Full account of one pipeline run."""

    pipeline: str
    stage_reports: list[StageReport] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    score: float | None = None
    failed: bool = False
    failure_stage: str | None = None
    failure_reason: str | None = None
    #: ledger row indices appended for this run (empty when the executor
    #: has no lineage ledger attached); ``_store_commit`` back-fills the
    #: adopting commit onto exactly these rows.
    lineage_rows: tuple = ()

    @property
    def execution_seconds(self) -> float:
        """Compute time across stages actually executed this run."""
        return sum(r.run_seconds for r in self.stage_reports)

    @property
    def storage_seconds(self) -> float:
        return sum(r.store_seconds for r in self.stage_reports)

    @property
    def pipeline_seconds(self) -> float:
        """Execution plus storage: the paper's 'pipeline time'."""
        return self.execution_seconds + self.storage_seconds

    @property
    def preprocessing_seconds(self) -> float:
        return sum(r.run_seconds for r in self.stage_reports if not r.is_model)

    @property
    def training_seconds(self) -> float:
        return sum(r.run_seconds for r in self.stage_reports if r.is_model)

    def stage(self, name: str) -> StageReport:
        for report in self.stage_reports:
            if report.stage == name:
                return report
        raise KeyError(f"no stage {name!r} in report")

    @property
    def stage_outputs(self) -> dict[str, str]:
        """stage -> archived output reference (for commit records)."""
        return {
            r.stage: r.output_ref for r in self.stage_reports if r.output_ref
        }

    @property
    def n_executed(self) -> int:
        return sum(1 for r in self.stage_reports if r.executed)

    @property
    def n_reused(self) -> int:
        return sum(1 for r in self.stage_reports if r.reused)


class _RunState:
    """Per-run state of one pipeline run, guarded by one run-local lock.

    Refs and records are written by the producing stage before any
    consumer starts (topological / DAG order guarantees it), so readers
    see settled values; the lock makes each update atomic and keeps the
    failure bar consistent when a scheduler runs stages on several
    threads.
    """

    def __init__(self, instance: PipelineInstance) -> None:
        self.order = instance.spec.topological_order()
        self._indices = {stage: i for i, stage in enumerate(self.order)}
        self._lock = threading.Lock()
        self.reports: dict[str, StageReport] = {}
        self.refs: dict[str, str] = {}
        self.records: dict[str, object] = {}
        self.payloads: dict[str, object] = {}
        #: topological index of the earliest failed stage, if any, and
        #: that stage's reason
        self.failed_bar: int | None = None
        self.failure_reason: str | None = None

    def fail(self, stage: str, stage_report: StageReport, reason: str | None) -> bool:
        stage_report.failed = True
        index = self._indices[stage]
        with self._lock:
            if self.failed_bar is None or index < self.failed_bar:
                self.failed_bar, self.failure_reason = index, reason
        return False

    def settle(self, stage: str, stage_report: StageReport, record, executed: bool) -> bool:
        """Bind a stage to its checkpoint record: ``executed`` when this
        run computed it, a reuse otherwise."""
        stage_report.executed = executed
        stage_report.reused = not executed
        stage_report.output_ref = record.output_ref
        stage_report.output_bytes = record.output_bytes
        stage_report.checkpoint_key = record.key
        with self._lock:
            self.refs[stage] = record.output_ref
            self.records[stage] = record
        return True

    def set_payload(self, stage: str, payload) -> None:
        with self._lock:
            self.payloads[stage] = payload

    def payload_of(self, stage: str, checkpoints: CheckpointStore):
        """Lazily materialize a predecessor's output. Two consumers may
        race the same load; the loads are deterministic so the duplicate
        is waste, not a bug."""
        with self._lock:
            if stage in self.payloads:
                return self.payloads[stage]
            record = self.records.get(stage)
        if record is None:
            raise ComponentError(f"no payload or checkpoint for stage {stage!r}")
        payload = checkpoints.load(record)
        with self._lock:
            return self.payloads.setdefault(stage, payload)


class Executor:
    """Runs pipeline instances against a checkpoint store.

    :meth:`_run_stage` is the single definition of what a stage is and
    :meth:`_report` the single report assembly; ``run`` only decides the
    order stages are visited in, and :meth:`_resolve_miss` is the one
    step a subclass overrides
    (:class:`repro.engine.ParallelExecutor`: through a single-flight).
    """

    def __init__(
        self,
        checkpoints: CheckpointStore,
        metric: str = "accuracy",
        reuse: bool = True,
        lineage=None,
    ):
        self.checkpoints = checkpoints
        self.metric = metric
        self.reuse = reuse
        #: optional :class:`repro.provenance.LineageLedger`; when set,
        #: every finished run appends one record per non-failed stage —
        #: during report assembly (caller's thread, topological order),
        #: so the ledger never depends on how stages were scheduled.
        self.lineage = lineage

    # ----------------------------------------------------------------- run
    def run(
        self,
        instance: PipelineInstance,
        context: ExecutionContext | None = None,
    ) -> RunReport:
        """Execute ``instance``; reuse archived outputs where allowed.

        Reused stages cost no compute and (lazily) no load either: a
        checkpointed output is only deserialized when a downstream stage
        actually has to execute on it.
        """
        context = context or ExecutionContext(metric=self.metric)
        state = _RunState(instance)
        for stage in state.order:
            if not self._run_stage(stage, instance, context, state):
                break
        return self._report(instance, context, state)

    # ---------------------------------------------------------- one stage
    def _run_stage(
        self,
        stage: str,
        instance: PipelineInstance,
        context: ExecutionContext,
        state: _RunState,
    ) -> bool:
        """Process one stage whose predecessors have settled; returns
        success (a failed stage ends the run at it)."""
        component = instance.component(stage)
        is_dataset = isinstance(component, DatasetComponent)
        stage_report = StageReport(
            stage=stage,
            component_id=component.identifier,
            is_model=isinstance(component, LibraryComponent) and component.is_model,
        )
        state.reports[stage] = stage_report

        preds = instance.spec.predecessors(stage)
        if is_dataset:
            input_ref = component.fingerprint
        else:
            # Runtime compatibility check (Definition 4): the consumer
            # must accept every producer's output schema.
            if not all(
                component.accepts(instance.component(p).output_schema) for p in preds
            ):
                return state.fail(stage, stage_report, reason=None)
            input_ref = fingerprint_many(["input", *(state.refs[p] for p in preds)])

        if self.reuse:
            record = self.checkpoints.lookup(component, input_ref)
            if record is not None:
                return state.settle(stage, stage_report, record, executed=False)

        rng = context.rng_for(component.fingerprint)
        start = time.perf_counter()

        def compute():
            # Materialize inputs first (loading archived payloads only
            # now); load time is storage time, not compute time, so the
            # run clock is re-anchored after it — a stage that fails is
            # charged the load once.
            nonlocal start
            if not is_dataset:
                load_start = time.perf_counter()
                inputs = [state.payload_of(p, self.checkpoints) for p in preds]
                stage_report.store_seconds += time.perf_counter() - load_start
                payload = inputs[0] if len(inputs) == 1 else dict(zip(preds, inputs))
            start = time.perf_counter()
            cpu_start = time.thread_time()
            if is_dataset:
                output = component.materialize(rng)
            else:
                output = component.run(payload, rng)
            stage_report.run_seconds = time.perf_counter() - start
            stage_report.cpu_seconds = time.thread_time() - cpu_start

            metrics = output.get("metrics", {}) if stage_report.is_model else None
            store_start = time.perf_counter()
            saved = self.checkpoints.save(
                component,
                input_ref,
                output,
                run_seconds=stage_report.run_seconds,
                metrics=metrics,
            )
            stage_report.store_seconds += time.perf_counter() - store_start
            state.set_payload(stage, output)
            return saved

        # A component that *raises* fails the run at this stage (time
        # spent is still charged) rather than crashing the caller — a
        # merge must survive a broken candidate and keep searching.
        try:
            if self.reuse:
                record, computed = self._resolve_miss(component, input_ref, compute)
            else:
                record, computed = compute(), True
        except Exception as error:  # noqa: BLE001 - component code is untrusted
            stage_report.run_seconds = time.perf_counter() - start
            return state.fail(
                stage, stage_report, reason=f"{type(error).__name__}: {error}"
            )
        return state.settle(stage, stage_report, record, executed=computed)

    def _resolve_miss(self, component, input_ref: str, compute):
        """Obtain the record of a checkpoint miss: ``(record, computed)``,
        ``computed`` false when someone else's record was adopted. The
        one overridable step of a stage; never reached with
        ``reuse=False``."""
        return compute(), True

    # ------------------------------------------------------------ assembly
    def _report(
        self,
        instance: PipelineInstance,
        context: ExecutionContext,
        state: _RunState,
    ) -> RunReport:
        """Deterministic report construction: the topological prefix
        ending at the earliest failed stage (stages beyond it that a
        scheduler already ran are dropped; their checkpoints persist
        harmlessly), the last metrics in topological order, the score."""
        report = RunReport(pipeline=instance.spec.name)
        bar = state.failed_bar
        for stage in state.order if bar is None else state.order[: bar + 1]:
            stage_report = state.reports[stage]
            report.stage_reports.append(stage_report)
            record = state.records.get(stage)  # None only at the failed stage
            if record is not None and (
                record.metrics or (stage_report.executed and stage_report.is_model)
            ):
                report.metrics = dict(record.metrics)
        if bar is not None:
            report.failed = True
            report.failure_stage = state.order[bar]
            report.failure_reason = state.failure_reason
        elif not report.metrics:
            raise ComponentError(
                f"pipeline {instance.spec.name!r} produced no metrics; "
                "is the sink stage a model component?"
            )
        elif self.metric in report.metrics:
            report.score = score_from_metric(self.metric, report.metrics[self.metric])
        if self.lineage is not None:
            report.lineage_rows = self.lineage.record_run(
                instance, report, state.refs, seed=context.seed
            )
        return report
