"""Frozen references: the executor loop and the ordered-search loop as
they stood at ``fe088d0``, before both became one shared definition.

Production now has one stage body (``Executor._run_stage``) under both
executors and one draw/commit (``SearchStep``) under every search, so
the two can no longer vouch for each other. These copies are the
independent oracle the differential tests compare *every* production
executor and search against. They are verbatim — ``self`` attributes
and all — so do not tidy them; change them only when the semantics of a
stage or of a search step are changed on purpose.

The two leaf pickers are frozen too, as they stood at ``7f25be5``, when
production moved the search state onto the tree's nodes: the copies
here keep the plain run set of leaf ids and rescan subtrees by brute
force, so they share no bookkeeping with production.

So is the thread-pool search driver, as it stood at ``c8dc672``, before
merge candidates moved onto the calling thread
(``reference_parallel_search`` over ``reference_search_window``): up to
``workers`` candidates in flight on a ``ThreadPoolExecutor``, sharing
one ``SingleFlight``. ``tests/engine/test_search_oracle.py`` holds the
one caller-thread loop to it.

Import as ``from engine.reference import ...`` (``tests/`` is on
``sys.path``, see ``conftest.py``).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextvars import copy_context

import numpy as np

from repro.core.checkpoint import CheckpointStore
from repro.core.component import DatasetComponent, LibraryComponent
from repro.core.context import ExecutionContext
from repro.core.executor import Executor, RunReport, StageReport
from repro.core.merge.prioritized import (
    SearchStep,
    propagate_leaf_score,
    refresh_scores,
    scored_from_history,
)
from repro.core.merge.search_space import MergeScope
from repro.core.merge.traversal import (
    CandidateEvaluation,
    execute_candidate,
    path_key_of,
    run_candidate,
)
from repro.core.merge.tree import TreeNode, leaves
from repro.core.pipeline import PipelineInstance
from repro.engine import ParallelExecutor
from repro.errors import ComponentError
from repro.ml.metrics import score_from_metric
from repro.obs import trace as obs_trace
from repro.storage.hashing import fingerprint_many


class ReferenceExecutor:
    """``repro.core.executor.Executor`` as it stood at ``fe088d0``, when
    ``run`` was one loop and shared nothing with the parallel executor."""

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
        #: every finished run appends one record per non-failed stage.
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
        report = RunReport(pipeline=instance.spec.name)
        order = instance.spec.topological_order()
        # stage -> (input_ref for checkpointing, lazily-loaded payload)
        refs: dict[str, str] = {}
        payloads: dict[str, object] = {}
        records: dict[str, object] = {}

        for stage in order:
            component = instance.component(stage)
            stage_report = StageReport(
                stage=stage,
                component_id=component.identifier,
                is_model=isinstance(component, LibraryComponent) and component.is_model,
            )
            report.stage_reports.append(stage_report)

            preds = instance.spec.predecessors(stage)
            if isinstance(component, DatasetComponent):
                input_ref = component.fingerprint
            else:
                # Runtime compatibility check (Definition 4): the consumer
                # must accept every producer's output schema.
                incompatible = [
                    p
                    for p in preds
                    if not component.accepts(instance.component(p).output_schema)
                ]
                if incompatible:
                    stage_report.failed = True
                    report.failed = True
                    report.failure_stage = stage
                    break
                input_ref = fingerprint_many(["input", *(refs[p] for p in preds)])

            record = self.checkpoints.lookup(component, input_ref) if self.reuse else None
            if record is not None:
                stage_report.reused = True
                stage_report.output_ref = record.output_ref
                stage_report.output_bytes = record.output_bytes
                stage_report.checkpoint_key = record.key
                refs[stage] = record.output_ref
                records[stage] = record
                if record.metrics:
                    report.metrics = dict(record.metrics)
                continue

            # Materialize inputs first (loading archived payloads only
            # now); load time is storage time, not compute time. A
            # component that *raises* fails the run at this stage (time
            # spent is still charged) rather than crashing the caller —
            # a merge must survive a broken candidate and keep searching.
            rng = context.rng_for(component.fingerprint)
            start = time.perf_counter()  # re-anchored below; set here so the
            # except clause can always charge elapsed time
            try:
                if isinstance(component, DatasetComponent):
                    start = time.perf_counter()
                    cpu_start = time.thread_time()
                    output = component.materialize(rng)
                    stage_report.run_seconds = time.perf_counter() - start
                    stage_report.cpu_seconds = time.thread_time() - cpu_start
                else:
                    load_start = time.perf_counter()
                    inputs = [self._payload_of(p, payloads, records) for p in preds]
                    stage_report.store_seconds += time.perf_counter() - load_start
                    payload = inputs[0] if len(inputs) == 1 else {
                        p: v for p, v in zip(preds, inputs)
                    }
                    start = time.perf_counter()
                    cpu_start = time.thread_time()
                    output = component.run(payload, rng)
                    stage_report.run_seconds = time.perf_counter() - start
                    stage_report.cpu_seconds = time.thread_time() - cpu_start
            except Exception as error:  # noqa: BLE001 - component code is untrusted
                stage_report.run_seconds = time.perf_counter() - start
                stage_report.failed = True
                report.failed = True
                report.failure_stage = stage
                report.failure_reason = f"{type(error).__name__}: {error}"
                break
            stage_report.executed = True

            metrics = None
            if stage_report.is_model:
                metrics = output.get("metrics", {})
                report.metrics = dict(metrics)

            store_start = time.perf_counter()
            saved = self.checkpoints.save(
                component,
                input_ref,
                output,
                run_seconds=stage_report.run_seconds,
                metrics=metrics,
            )
            stage_report.store_seconds += time.perf_counter() - store_start
            stage_report.output_ref = saved.output_ref
            stage_report.output_bytes = saved.output_bytes
            stage_report.checkpoint_key = saved.key
            refs[stage] = saved.output_ref
            payloads[stage] = output

        if not report.failed:
            if not report.metrics:
                raise ComponentError(
                    f"pipeline {instance.spec.name!r} produced no metrics; "
                    "is the sink stage a model component?"
                )
            if self.metric in report.metrics:
                report.score = score_from_metric(self.metric, report.metrics[self.metric])
        if self.lineage is not None:
            report.lineage_rows = self.lineage.record_run(
                instance, report, refs, seed=context.seed
            )
        return report

    def _payload_of(self, stage: str, payloads: dict, records: dict):
        if stage in payloads:
            return payloads[stage]
        record = records.get(stage)
        if record is None:
            raise ComponentError(f"no payload or checkpoint for stage {stage!r}")
        payload = self.checkpoints.load(record)
        payloads[stage] = payload
        return payload


def reference_run(
    checkpoints: CheckpointStore,
    instance: PipelineInstance,
    context: ExecutionContext | None = None,
    metric: str = "accuracy",
    reuse: bool = True,
    lineage=None,
) -> RunReport:
    """One run of the frozen loop against ``checkpoints``."""
    return ReferenceExecutor(checkpoints, metric, reuse, lineage).run(instance, context)


def _has_unrun(node: TreeNode, run: set[int]) -> bool:
    """Brute force: is any leaf beneath ``node`` (the node itself, when
    it is a leaf other than the virtual root) not in ``run``?"""
    if node.is_leaf:
        return not node.is_root and id(node) not in run
    return any(_has_unrun(child, run) for child in node.children)


def reference_pick_prioritized_leaf(
    root: TreeNode, run: set[int], rng: np.random.Generator
) -> TreeNode | None:
    """``pick_prioritized_leaf`` as it stood at ``7f25be5``, over a plain
    run set. Verbatim except the two marked lines: the per-node unrun
    counter became :func:`_has_unrun`, in the descent and on the leaf
    reached (so the virtual root of a tree pruned empty is no pick)."""
    node = root
    while not node.is_leaf:
        open_children = [c for c in node.children if _has_unrun(c, run)]  # marked
        if not open_children:
            return None
        prior = node.score
        effective = [
            c.score if c.score is not None else prior for c in open_children
        ]
        if all(e is None for e in effective):
            node = open_children[int(rng.integers(len(open_children)))]
            continue
        known = [e for e in effective if e is not None]
        best = max(known)
        ties = [
            c
            for c, e in zip(open_children, effective)
            if e is not None and e == best
        ]
        if not ties:  # all open children unscored with no prior
            ties = open_children
        node = ties[int(rng.integers(len(ties)))]
    return node if _has_unrun(node, run) else None  # marked


def reference_pick_random_leaf(
    root: TreeNode, run: set[int], rng: np.random.Generator
) -> TreeNode | None:
    """``pick_random_leaf`` as it stood at ``7f25be5``, verbatim."""
    candidates = [leaf for leaf in leaves(root) if id(leaf) not in run]
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


def reference_ordered_search(
    root: TreeNode,
    scope: MergeScope,
    executor,
    context: ExecutionContext,
    method: str = "prioritized",
    budget: int | None = None,
    time_budget_seconds: float | None = None,
    seed: int = 0,
) -> list[CandidateEvaluation]:
    """``run_ordered_search`` as it stood at ``fe088d0``: its own draw loop,
    its own records."""
    if method not in ("prioritized", "random"):
        raise ValueError(f"unknown search method {method!r}")
    if time_budget_seconds is not None and time_budget_seconds < 0:
        raise ValueError("time_budget_seconds must be non-negative")
    rng = np.random.default_rng(seed)
    refresh_scores(root)
    run: set[int] = set()
    evaluations: list[CandidateEvaluation] = []
    picker = (
        reference_pick_prioritized_leaf
        if method == "prioritized"
        else reference_pick_random_leaf
    )
    clock_start = time.perf_counter()

    while budget is None or len(evaluations) < budget:
        if (
            time_budget_seconds is not None
            and evaluations
            and time.perf_counter() - clock_start >= time_budget_seconds
        ):
            break
        leaf = picker(root, run, rng)
        if leaf is None:
            break
        run.add(id(leaf))
        if leaf.score is not None and leaf.executed:
            # History-trained candidate: score known, nothing to execute.
            evaluations.append(
                CandidateEvaluation(
                    index=len(evaluations),
                    path_key=path_key_of(leaf),
                    components={n.stage: n.component for n in leaf.path_from_root()},
                    report=None,
                    score=leaf.score,
                    elapsed_seconds=time.perf_counter() - clock_start,
                )
            )
            continue
        report = execute_candidate(leaf, scope, executor, context)
        if report.failed:
            leaf.score = None
        evaluations.append(
            CandidateEvaluation(
                index=len(evaluations),
                path_key=path_key_of(leaf),
                components={n.stage: n.component for n in leaf.path_from_root()},
                report=report,
                score=None if report.failed else report.score,
                elapsed_seconds=time.perf_counter() - clock_start,
            )
        )
        if method == "prioritized":
            propagate_leaf_score(leaf)
    return evaluations


def _inline(evaluate, leaf: TreeNode, index: int) -> Future:
    """The width-1 ``submit``: evaluate now, on the calling thread."""
    future: Future = Future()
    future.set_result(evaluate(leaf, index))
    return future


def reference_search_window(
    step: SearchStep, evaluate, width: int = 1, submit=_inline
) -> list[CandidateEvaluation]:
    """``search_window`` as it stood at ``c8dc672``, verbatim: each
    drawn leaf handed to ``submit``, each commit waiting on a future."""
    window: deque[tuple[TreeNode, Future | None]] = deque()
    drawing = True
    while drawing or window:
        while drawing and len(window) < width:
            leaf = step.draw()
            if leaf is None:
                drawing = False
            elif scored_from_history(leaf):
                window.append((leaf, None))
            else:
                window.append((leaf, submit(evaluate, leaf, step.drawn - 1)))
        if window:
            leaf, future = window.popleft()
            step.commit(leaf, future.result() if future is not None else None)
    return step.evaluations


def reference_parallel_search(
    root: TreeNode,
    scope: MergeScope,
    executor: Executor | ParallelExecutor,
    context: ExecutionContext,
    method: str = "prioritized",
    workers: int = 2,
    budget: int | None = None,
    time_budget_seconds: float | None = None,
    seed: int = 0,
) -> list[CandidateEvaluation]:
    """``engine.run_parallel_search`` as it stood at ``c8dc672``.
    Verbatim but for the ``reference_`` names and the two marked lines:
    its ``flight`` argument, which every caller left ``None``, is gone,
    so each multi-worker search gets a fresh flight from
    ``from_executor``, as it did then."""
    step = SearchStep(root, method, seed, budget, time_budget_seconds)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Single-flight dedups *concurrent* candidates; one worker with no
    # flight to share has none, and keeps the executor it was given.
    engine = executor
    if workers > 1:  # marked
        engine = ParallelExecutor.from_executor(executor)  # marked
    tracer = obs_trace.default_tracer()

    def evaluate(leaf: TreeNode, index: int):
        with tracer.span("merge.candidate", draw=index):
            return run_candidate(leaf, scope, engine, context)

    if workers == 1:
        return reference_search_window(step, evaluate)
    with ThreadPoolExecutor(workers, thread_name_prefix="repro-merge") as pool:
        # A pool thread starts with an empty contextvars context; running
        # under a copy of the caller's keeps every merge.candidate span
        # nested under the caller's current span, one trace per merge.
        return reference_search_window(
            step,
            evaluate,
            workers,
            lambda *call: pool.submit(copy_context().run, *call),
        )
