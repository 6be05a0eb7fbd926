"""Parallel execution engine: DAG-parallel stage scheduling, multi-worker
merge search, and single-flight checkpoint deduplication.

What a stage is (:meth:`repro.core.executor.Executor._run_stage`) and
what a search step is (:class:`repro.core.merge.prioritized.SearchStep`)
are defined in ``repro.core``; this package adds only *when* they run.
Every executor and search driver is differential-tested against the
frozen loops of ``tests/engine/reference.py`` — any divergence in stage
output refs, metrics, scores, reuse flags, or failure stages between
worker counts is a scheduling bug in this package.

Entry points:

* :class:`ParallelExecutor` — an ``Executor`` running independent DAG
  stages concurrently with single-flight reuse;
* :func:`run_parallel_search` — multi-worker prioritized/random merge
  search preserving the paper's pick order via a fixed window of draws
  committed in draw order;
* :class:`SingleFlight` — at-most-once computation per ``(component
  fingerprint, input ref)`` pair across concurrent runs;
* :class:`DagScheduler` — the generic task-DAG loop over a thread pool.
"""

from .executor import ParallelExecutor
from .merge_driver import run_parallel_search
from .scheduler import DagScheduler, DagResult
from .single_flight import COMPUTED, HIT, JOINED, FlightStats, SingleFlight

__all__ = [
    "ParallelExecutor",
    "run_parallel_search",
    "DagScheduler",
    "DagResult",
    "SingleFlight",
    "FlightStats",
    "COMPUTED",
    "HIT",
    "JOINED",
]
