"""Multi-worker prioritized merge search (paper section VII-E, parallel).

What a draw and a commit are, and the loop that alternates them, live in
:mod:`repro.core.merge.prioritized` (:class:`SearchStep`,
:func:`search_window`); the calling thread runs that loop and is the only
one to touch the tree (whose nodes hold the search state) and the RNG.
This module supplies the two things concurrency adds: a
:class:`ThreadPoolExecutor` for the loop to submit candidates to, and the
shared single-flight layer.

With ``workers = W`` the loop keeps at most ``W`` draws uncommitted,
fills the window before it commits, and commits in draw order, so the
picker's view at draw ``j`` is *exactly* the scores of results
``0 .. j-W`` — independent of thread timing. A search is deterministic
for a given ``(seed, workers)`` pair, and ``workers=1`` is the sequential
search: same RNG stream, same draw sequence, same evaluations, no pool
and no thread.

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

from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

from ..core.context import ExecutionContext
from ..core.executor import Executor
from ..core.merge.prioritized import SearchStep, search_window
from ..core.merge.search_space import MergeScope
from ..core.merge.traversal import CandidateEvaluation, run_candidate
from ..core.merge.tree import TreeNode
from ..obs import trace as obs_trace
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
    """Execute candidates in prioritized or random order, up to
    ``workers`` at once; same contract and return shape as
    :func:`~repro.core.merge.prioritized.run_ordered_search`.

    ``executor`` supplies the checkpoint store, metric, and reuse policy;
    candidate paths are chains, so each candidate runs sequentially
    within itself while candidates run concurrently with each other.
    """
    step = SearchStep(root, method, seed, budget, time_budget_seconds)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Single-flight dedups *concurrent* candidates; one worker with no
    # flight to share has none, and keeps the executor it was given.
    engine = executor
    if workers > 1 or flight is not None:
        engine = ParallelExecutor.from_executor(executor, flight=flight)
    tracer = obs_trace.default_tracer()

    def evaluate(leaf: TreeNode, index: int):
        with tracer.span("merge.candidate", draw=index):
            return run_candidate(leaf, scope, engine, context)

    if workers == 1:
        return search_window(step, evaluate)
    with ThreadPoolExecutor(workers, thread_name_prefix="repro-merge") as pool:
        # A pool thread starts with an empty contextvars context; running
        # under a copy of the caller's keeps every merge.candidate span
        # nested under the caller's current span, one trace per merge.
        return search_window(
            step,
            evaluate,
            workers,
            lambda *call: pool.submit(copy_context().run, *call),
        )
