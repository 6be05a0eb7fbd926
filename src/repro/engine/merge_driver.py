"""Multi-worker prioritized merge search (paper section VII-E, parallel).

The sequential :func:`~repro.core.merge.prioritized.run_ordered_search`
alternates strictly: draw a leaf, execute it, commit its score, draw the
next. The parallel driver keeps several candidates in flight over the
same :class:`~repro.core.merge.prioritized.SearchStep` — what a draw and
a commit *are* is defined there, once; this module owns only the
concurrency, a fixed-window protocol that preserves the paper's pick
semantics:

* **One draw stream.** One ``SearchStep`` (tree, RNG, run set) issues
  draws in order ``j = 0, 1, 2, ...`` under a lock — workers draw from
  the same stream, they never pick independently.
* **Commit in draw order.** Finished candidates park their reports in a
  result buffer; results commit (tree marks, ``leaf.score``, score
  propagation, the evaluation record) strictly in draw order.
* **Fixed lookahead window.** With ``workers = W``, draw ``j`` is issued
  only once results ``0 .. j-W`` have committed, and result ``i`` commits
  only once draw ``i+W-1`` has been issued (or drawing has stopped). The
  picker's view at draw ``j`` is therefore *exactly* the scores of the
  first ``j-W+1`` results — independent of thread timing — so a search is
  deterministic for a given ``(seed, workers)`` pair, and ``workers=1``
  degenerates to the sequential search: same RNG stream, same draw
  sequence, same evaluations.

With ``workers > 1`` the draw *sequence* may differ from sequential (the
picker sees scores ``W-1`` draws late — the price of concurrency), but
every executed candidate is still deterministic: output refs are
content-addressed, and the shared single-flight layer guarantees each
``(component fingerprint, input ref)`` pair executes at most once even
when two in-flight candidates race to a shared prefix — the later one
blocks and records a reuse, so an unbudgeted parallel search reaches
identical final scores, stage output refs, and total executed/reused
counts as the sequential search.
"""

from __future__ import annotations

import threading

from ..core.context import ExecutionContext
from ..core.executor import Executor
from ..obs import propagation
from ..obs import trace as obs_trace
from ..core.merge.prioritized import SearchStep, scored_from_history
from ..core.merge.search_space import MergeScope
from ..core.merge.traversal import CandidateEvaluation, run_candidate
from ..core.merge.tree import TreeNode
from .executor import ParallelExecutor
from .single_flight import SingleFlight


def run_parallel_search(
    root: TreeNode,
    scope: MergeScope,
    executor: Executor | ParallelExecutor,
    context: ExecutionContext,
    method: str = "prioritized",
    workers: int = 2,
    budget: int | None = None,
    time_budget_seconds: float | None = None,
    seed: int = 0,
    flight: SingleFlight | None = None,
) -> list[CandidateEvaluation]:
    """Execute candidates in prioritized or random order on ``workers``
    threads; same contract and return shape as
    :func:`~repro.core.merge.prioritized.run_ordered_search`.

    ``executor`` supplies the checkpoint store, metric, and reuse policy;
    candidate paths are chains, so each candidate runs sequentially
    within itself while candidates run concurrently with each other.
    """
    step = SearchStep(root, method, seed, budget, time_budget_seconds)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    engine = ParallelExecutor.from_executor(executor, flight=flight)
    return _Coordinator(step, scope, engine, context, workers).search()


class _Coordinator:
    """The lookahead window, result buffer and threads behind one search."""

    def __init__(
        self,
        step: SearchStep,
        scope: MergeScope,
        engine: ParallelExecutor,
        context: ExecutionContext,
        workers: int,
    ) -> None:
        self.step = step
        self.scope = scope
        self.engine = engine
        self.context = context
        self.workers = workers

        # Trace continuity across the fan-out: worker threads start with
        # an *empty* contextvar context, so without capturing the caller's
        # current span here every candidate span would root a disjoint
        # trace. Workers adopt this parent (adopt-only: with workers=1
        # the caller's span is already current and adoption no-ops), so a
        # traced merge yields one tree — search root over every
        # merge.candidate — that the critical-path analyzer can walk.
        self._trace_parent = obs_trace.current_span()
        self._tracer = obs_trace.default_tracer()

        self._cond = threading.Condition()
        #: draw index -> (leaf, report); report ``None`` for a leaf
        #: scored from history. Draws issued = ``step.drawn``, results
        #: committed = ``len(step.evaluations)``.
        self._results: dict[int, tuple] = {}
        self._drawing_done = False
        self._crash: BaseException | None = None

    # ------------------------------------------------------------- protocol
    def search(self) -> list[CandidateEvaluation]:
        if self.workers == 1:
            self._worker()
        else:
            threads = [
                threading.Thread(
                    target=self._worker, name=f"repro-merge-{i}", daemon=True
                )
                for i in range(self.workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if self._crash is not None:
            raise self._crash
        return self.step.evaluations

    def _worker(self) -> None:
        try:
            with propagation.adopt_remote_context(self._trace_parent):
                self._worker_loop()
        except BaseException as error:  # noqa: BLE001 - surfaced to caller
            with self._cond:
                if self._crash is None:
                    self._crash = error
                self._cond.notify_all()

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                self._drain_commits()
                if self._finished():
                    self._cond.notify_all()
                    return
                drew = self._try_draw()
                if drew is None:
                    if self._finished():
                        self._cond.notify_all()
                        return
                    self._cond.wait()
                    continue
                index, leaf = drew
                if leaf is None:
                    continue  # nothing to execute; loop to drain/exit
            # Execute outside the lock: this is the parallelism.
            with self._tracer.span("merge.candidate", draw=index):
                report = run_candidate(leaf, self.scope, self.engine, self.context)
            with self._cond:
                self._results[index] = (leaf, report)
                self._drain_commits()
                self._cond.notify_all()

    def _finished(self) -> bool:
        return self._crash is not None or (
            self._drawing_done and len(self.step.evaluations) == self.step.drawn
        )

    def _try_draw(self):
        """Issue the next draw if the window allows; returns ``None`` when
        the caller must wait, ``(index, None)`` when there is nothing to
        execute (drawing stopped, or a history-scored leaf, buffered as a
        free result immediately) and ``(index, leaf)`` for an executable
        draw. Runs under the lock."""
        if self._drawing_done:
            return None
        j = self.step.drawn
        if j >= self.workers and len(self.step.evaluations) < j - self.workers + 1:
            return None
        leaf = self.step.draw()
        if leaf is None:
            self._drawing_done = True
        elif scored_from_history(leaf):
            self._results[j] = (leaf, None)
            self._drain_commits()
        else:
            return (j, leaf)
        self._cond.notify_all()
        return (j, None)

    def _drain_commits(self) -> None:
        """Commit buffered results in draw order while the window (or the
        end of drawing) allows. Runs under the lock — this is the only
        place the tree mutates during a search."""
        while True:
            i = len(self.step.evaluations)
            if i not in self._results:
                return
            if not self._drawing_done and self.step.drawn < i + self.workers:
                return
            self.step.commit(*self._results.pop(i))
