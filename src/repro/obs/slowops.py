"""Slow-op capture: a forensic snapshot when an operation blows its
latency budget.

Metrics say *that* an op was slow; a capture says *why*: when a handled
operation exceeds its per-op threshold, the server snapshots

* the finished **span tree** of the request's trace (lock waits, chunk
  imports, admission — the request's own account of its time), and
* the live **thread stacks** of the whole process
  (:func:`repro.obs.profiler.snapshot_stacks` — what everyone else was
  doing, i.e. what the slow op was most likely blocked on),

into a bounded ring (newest kept). Captures surface over
``GET /debug/slow``, the ``trace`` RPC op, and the ``stats`` readout.

The check runs at op *completion* — the only point where the duration
is a fact rather than a watchdog guess — so the thread stacks show the
process as the slow op ended: contention that outlived the op is caught
red-handed, contention that ended earlier shows up in the span tree's
lock spans instead. The two views are deliberately complementary.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..ops import OP_TABLE
from . import profiler as obs_profiler

#: Default latency budget (seconds) for ops the table gives none;
#: :data:`DEFAULT_OP_THRESHOLDS` is the op table's ``slow_seconds``
#: column — writes and content reads move chunks and get generous ones.
DEFAULT_SLOW_OP_SECONDS = 1.0
DEFAULT_OP_THRESHOLDS = {
    spec.name: spec.slow_seconds
    for spec in OP_TABLE.values()
    if spec.slow_seconds is not None
}


class SlowOpCapture:
    """Bounded ring of forensic snapshots of over-budget operations.

    ``thresholds`` overrides/extends the per-op defaults;
    ``default_seconds`` is the budget for unlisted ops (None disables
    capture for them); ``max_captures`` bounds memory — a misconfigured
    threshold cannot turn the capture ring into a span archive.
    """

    def __init__(
        self,
        thresholds: dict[str, float] | None = None,
        default_seconds: float | None = DEFAULT_SLOW_OP_SECONDS,
        max_captures: int = 32,
        max_spans_per_capture: int = 256,
    ):
        self.thresholds = dict(DEFAULT_OP_THRESHOLDS)
        self.thresholds.update(thresholds or {})
        self.default_seconds = default_seconds
        self.max_spans_per_capture = max_spans_per_capture
        self._lock = threading.Lock()
        self._captures: deque[dict] = deque(maxlen=max(1, max_captures))
        self.observed = 0
        self.captured = 0

    def threshold_for(self, op: str) -> float | None:
        return self.thresholds.get(op, self.default_seconds)

    def observe(
        self,
        op: str,
        seconds: float,
        tracer=None,
        trace_id: str | None = None,
        **context,
    ) -> dict | None:
        """Check one completed op against its budget; capture if slow.

        ``tracer``/``trace_id`` locate the request's finished spans for
        the snapshot; ``context`` (tenant, repo, ...) is recorded
        verbatim. Returns the capture dict, or None when under budget.
        """
        with self._lock:
            self.observed += 1
        threshold = self.threshold_for(op)
        if threshold is None or seconds < threshold:
            return None
        spans: list[dict] = []
        if tracer is not None and trace_id:
            spans = [
                span
                for span in tracer.finished()
                if span.get("trace_id") == trace_id
            ][-self.max_spans_per_capture:]
        capture = {
            "op": op,
            "seconds": seconds,
            "threshold": threshold,
            "ts": time.time(),
            "trace_id": trace_id,
            "spans": spans,
            "stacks": obs_profiler.snapshot_stacks(),
            **context,
        }
        with self._lock:
            self._captures.append(capture)
            self.captured += 1
        return capture

    def captures(self) -> list[dict]:
        """Retained captures, oldest first."""
        with self._lock:
            return list(self._captures)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "observed": self.observed,
                "captured": self.captured,
                "retained": len(self._captures),
                "default_seconds": self.default_seconds,
            }


__all__ = [
    "DEFAULT_OP_THRESHOLDS",
    "DEFAULT_SLOW_OP_SECONDS",
    "SlowOpCapture",
]
