"""Parallel execution engine: DAG-parallel stage scheduling with
single-flight checkpoint deduplication.

What a stage is (:meth:`repro.core.executor.Executor._run_stage`) is
defined in ``repro.core``; this package adds only *when* stages run.
Merge candidates are not its business: every search runs them on the
calling thread (:func:`repro.core.merge.prioritized.search_window`).
Every executor is differential-tested against the frozen loop of
``tests/engine/reference.py`` — any divergence in stage output refs,
metrics, scores, reuse flags, or failure stages between worker counts
is a scheduling bug in this package.

Entry points:

* :class:`ParallelExecutor` — an ``Executor`` running independent DAG
  stages concurrently, each checkpoint miss through its own
  :class:`SingleFlight`;
* :class:`SingleFlight` — at-most-once computation per ``(component
  fingerprint, input ref)`` pair among the stages of one run;
* :class:`DagScheduler` — the generic task-DAG loop over a thread pool.
"""

from .executor import ParallelExecutor
from .scheduler import DagScheduler, DagResult
from .single_flight import COMPUTED, HIT, JOINED, FlightStats, SingleFlight

__all__ = [
    "ParallelExecutor",
    "DagScheduler",
    "DagResult",
    "SingleFlight",
    "FlightStats",
    "COMPUTED",
    "HIT",
    "JOINED",
]
