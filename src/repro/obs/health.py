"""Sliding-window health model: the serving stack reading its own telemetry.

A :class:`HealthMonitor` periodically snapshots the
:class:`~repro.obs.metrics.MetricsRegistry` families the servers already
populate (``repro_request_seconds``, ``repro_request_errors_total``,
``repro_admission_denied_total``, ``repro_lock_wait_seconds``) and
derives windowed signals from the deltas: per-op p50/p95/p99 latency
(interpolated from histogram-bucket deltas), error-budget burn,
admission-denial mix and lock-wait pressure. One stream, one window:
if a server emits metrics, it can be health-modelled, and a probe costs
one registry cut per tick however many requests were served.

Snapshots are ticked *lazily* from the read paths (``health()``,
``ready()``, ``shed_decision()``), at most one per :data:`TICK_SECONDS`
— no background thread, so a monitor on an idle server
costs nothing and a monitor under load amortizes one registry copy per
tick across every admission decision in that tick.

Three consumers, deliberately decoupled:

* **liveness** (``GET /healthz``): the process answers — always true if
  the handler runs;
* **readiness** (``GET /readyz``): flips down on error-budget burn or
  active shedding; recovers as the window slides clean;
* **shedding** (:meth:`shed_decision`, called by the hub admission
  pipeline *before any repository state is touched*): triggers on
  windowed per-op p99 exceeding its objective — never on error burn.
  Shed requests are answered as typed
  :class:`~repro.errors.ServerOverloadedError`\\ s and land in the
  admission-denial counters, not the request-latency histograms, so the
  shedder's own output cannot feed its input and latch it on.

The policy is fixed: each op's objective is its ``p99_seconds`` in the
op table (:mod:`repro.ops`), where an entry cannot be written without
one, so a new RPC cannot ship invisible to the health model; the rest
are the module constants below.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..ops import OP_TABLE
from .metrics import NULL_REGISTRY

#: At most 1% of requests may fail before the error budget is spent.
AVAILABILITY = 0.99

#: Readiness flips when the window burns budget at >= 14.4x the
#: sustainable rate (the classic page-worthy figure: a 30-day budget
#: gone in ~2 days).
BURN_THRESHOLD = 14.4

#: The one sliding window both the shed signal and the burn are judged
#: over, and the least time between two registry cuts.
WINDOW_SECONDS = 30.0
TICK_SECONDS = 1.0

#: Requests an op (or, for burn, the server) must have served in the
#: window before one slow outlier or one failure can shed or flip
#: readiness on a quiet server.
MIN_SAMPLES = 20

#: The backoff hint every :class:`~repro.errors.ServerOverloadedError`
#: carries.
RETRY_AFTER_SECONDS = 1.0

#: Ops never shed: the probes an operator (or an automated client
#: backing off) needs precisely when the server is overloaded.
SHED_EXEMPT_OPS = frozenset(
    spec.name for spec in OP_TABLE.values() if spec.shed_exempt
)

#: Quantiles the window report carries.
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def _percentile(buckets, deltas, q: float) -> float | None:
    """Quantile from histogram-bucket *deltas*, linearly interpolated.

    ``buckets`` are the finite upper bounds; ``deltas`` has one extra
    trailing +Inf entry. Follows ``histogram_quantile``'s convention for
    the +Inf bucket: answer the largest finite bound (there is no upper
    edge to interpolate toward).
    """
    total = sum(deltas)
    if total <= 0:
        return None
    rank = q * total
    cumulative = 0.0
    for i, count in enumerate(deltas):
        if count <= 0:
            continue
        previous = cumulative
        cumulative += count
        if cumulative < rank:
            continue
        if i >= len(buckets):  # the +Inf bucket
            return float(buckets[-1]) if buckets else None
        lower = float(buckets[i - 1]) if i > 0 else 0.0
        upper = float(buckets[i])
        fraction = (rank - previous) / count
        return lower + (upper - lower) * fraction
    return float(buckets[-1]) if buckets else None


class _Sample:
    """One timestamped cut of the cumulative telemetry counters."""

    __slots__ = ("mono", "ops", "errors", "denied", "lock_wait")

    def __init__(self, mono, ops, errors, denied, lock_wait):
        self.mono = mono
        self.ops = ops                  # op -> {buckets, counts, count, sum}
        self.errors = errors            # handler failures, cumulative
        self.denied = denied            # reason -> cumulative total
        self.lock_wait = lock_wait      # {"count": n, "sum": seconds}

    def requests(self) -> int:
        return sum(agg["count"] for agg in self.ops.values())


def _op_delta(baseline: _Sample, newest: _Sample, op: str):
    """One op's ``(buckets, bucket deltas, count, seconds)`` over the
    window, or ``None`` when it served nothing in it."""
    current = newest.ops.get(op)
    if current is None:
        return None
    before = baseline.ops.get(op)
    deltas = list(current["counts"])
    count = current["count"]
    total = current["sum"]
    if before is not None and before["buckets"] == current["buckets"]:
        for i, n in enumerate(before["counts"]):
            deltas[i] -= n
        count -= before["count"]
        total -= before["sum"]
    if count <= 0:
        return None
    return current["buckets"], deltas, count, total


class HealthMonitor:
    """Windowed health/readiness/shedding decisions over live telemetry.

    Thread-safe; every public method may be called concurrently with
    the servers still writing the underlying registry (the registry's
    own lock guarantees each snapshot is a consistent cut).
    """

    def __init__(self, registry=None, clock=time.monotonic, wallclock=time.time):
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._clock = clock
        self._wallclock = wallclock
        self._lock = threading.Lock()
        self._samples: deque[_Sample] = deque()
        self._last_tick = float("-inf")
        self._last_shed_mono = float("-inf")
        self._shed_total = 0
        self._shed_by_op: dict[str, int] = {}
        # Baseline cut at construction: the first window measures what
        # happened since the monitor (== the server) came up, not the
        # whole cumulative history of a shared registry.
        self._tick(force=True)

    # ------------------------------------------------------------ sampling
    def _collect(self) -> _Sample:
        ops: dict[str, dict] = {}
        for series in self.registry.series("repro_request_seconds"):
            op = series["labels"].get("op", "-")
            agg = ops.get(op)
            if agg is None:
                ops[op] = {
                    "buckets": tuple(series["buckets"]),
                    "counts": list(series["bucket_counts"]),
                    "count": series["count"],
                    "sum": series["sum"],
                }
            else:
                for i, n in enumerate(series["bucket_counts"]):
                    agg["counts"][i] += n
                agg["count"] += series["count"]
                agg["sum"] += series["sum"]
        errors = sum(
            series["value"]
            for series in self.registry.series("repro_request_errors_total")
        )
        denied: dict[str, float] = {}
        for series in self.registry.series("repro_admission_denied_total"):
            reason = series["labels"].get("reason", "-")
            denied[reason] = denied.get(reason, 0.0) + series["value"]
        lock_wait = {"count": 0, "sum": 0.0}
        for series in self.registry.series("repro_lock_wait_seconds"):
            lock_wait["count"] += series["count"]
            lock_wait["sum"] += series["sum"]
        return _Sample(self._clock(), ops, errors, denied, lock_wait)

    def _tick(self, force: bool = False) -> None:
        """Snapshot the registry if the last cut is older than a tick."""
        now = self._clock()
        with self._lock:
            if not force and now - self._last_tick < TICK_SECONDS:
                return
            self._last_tick = now
            self._samples.append(self._collect())
            horizon = WINDOW_SECONDS + 2 * TICK_SECONDS
            while (
                len(self._samples) > 2
                and now - self._samples[1].mono > horizon
            ):
                self._samples.popleft()

    def _window_edges(self) -> tuple[_Sample, _Sample] | None:
        """(baseline, newest): baseline is the newest sample at least a
        window old, else the oldest available (short-lived monitor)."""
        with self._lock:
            if len(self._samples) < 2:
                return None
            newest = self._samples[-1]
            cutoff = newest.mono - WINDOW_SECONDS
            baseline = self._samples[0]
            for sample in self._samples:
                if sample.mono <= cutoff:
                    baseline = sample
                else:
                    break
            if baseline is newest:
                baseline = self._samples[0]
            return baseline, newest

    # ------------------------------------------------------------- windows
    def window(self) -> dict:
        """Deltas over the sliding window, as one JSON-ready dict."""
        self._tick()
        edges = self._window_edges()
        if edges is None:
            return {
                "seconds": 0.0,
                "ops": {},
                "denied": {},
                "lock_wait": {"count": 0, "avg_seconds": 0.0},
            }
        baseline, newest = edges
        ops: dict[str, dict] = {}
        for op in newest.ops:
            delta = _op_delta(baseline, newest, op)
            if delta is None:
                continue
            buckets, deltas, count, total = delta
            report = {"count": count, "mean_seconds": total / count}
            for name, q in _QUANTILES:
                value = _percentile(buckets, deltas, q)
                if value is not None:
                    report[name] = value
            ops[op] = report
        denied = {}
        for reason, value in newest.denied.items():
            delta = value - baseline.denied.get(reason, 0.0)
            if delta > 0:
                denied[reason] = delta
        lock_count = newest.lock_wait["count"] - baseline.lock_wait["count"]
        lock_sum = newest.lock_wait["sum"] - baseline.lock_wait["sum"]
        return {
            "seconds": newest.mono - baseline.mono,
            "ops": ops,
            "denied": denied,
            "lock_wait": {
                "count": max(lock_count, 0),
                "avg_seconds": (
                    lock_sum / lock_count if lock_count > 0 else 0.0
                ),
            },
        }

    def _burn(self) -> dict:
        """Error-budget burn over the sliding window, from the registry.

        Burn = (handler failures / requests served in the window) divided
        by the budget; 1.0 means "spending exactly what the availability
        objective allows". Failures are ``repro_request_errors_total``,
        which a server counts only when an admitted, validated request's
        handler raises: validation refusals and hub denials — shed
        requests included — never count, so the shedder cannot feed
        its own signal.
        """
        self._tick()
        edges = self._window_edges()
        requests = errors = 0
        if edges is not None:
            baseline, newest = edges
            requests = max(newest.requests() - baseline.requests(), 0)
            errors = max(newest.errors - baseline.errors, 0)
        rate = errors / requests if requests else 0.0
        return {
            "requests": requests,
            "errors": errors,
            "error_rate": rate,
            "burn": rate / (1.0 - AVAILABILITY),
        }

    # ----------------------------------------------------------- decisions
    def alive(self) -> bool:
        """Liveness: the process is running and answering. Always true
        from inside the process — the signal is in *reaching* it."""
        return True

    def ready(self) -> tuple[bool, list[str]]:
        """Readiness and the reasons it is (not) — empty list when ready.

        Flips down on: error-budget burn over threshold, or shedding
        having fired within the last window. Both clear themselves as
        the window slides past the incident.
        """
        reasons = []
        burn = self._burn()
        if (
            burn["requests"] >= MIN_SAMPLES
            and burn["burn"] >= BURN_THRESHOLD
        ):
            reasons.append(
                f"error budget burn {burn['burn']:.1f}x >= {BURN_THRESHOLD:.1f}x"
            )
        if self._shedding_active():
            reasons.append("overload shedding active")
        return (not reasons, reasons)

    def _shedding_active(self) -> bool:
        return self._clock() - self._last_shed_mono <= WINDOW_SECONDS

    def shed_decision(self, op: str) -> float | None:
        """Should an admission of ``op`` be shed right now?

        Returns the ``retry_after`` hint (seconds) to send the client,
        or None to admit. Called by the hub *before* any repository
        state is touched; exempt ops (:data:`SHED_EXEMPT_OPS`) are never
        shed so probes and backoff decisions keep working under load.
        Latency-driven: sheds when the windowed p99 of this op has
        breached its objective across at least :data:`MIN_SAMPLES`
        requests — never on error burn.
        """
        spec = OP_TABLE.get(op)
        if spec is None or spec.shed_exempt:
            return None
        # The judged op's window only: a whole window() would compute
        # every op's percentiles on every admitted request.
        self._tick()
        edges = self._window_edges()
        delta = None if edges is None else _op_delta(*edges, op)
        if delta is None:
            return None
        buckets, deltas, count, _ = delta
        if count < MIN_SAMPLES:
            return None
        p99 = _percentile(buckets, deltas, 0.99)
        if p99 is not None and p99 > spec.p99_seconds:
            return RETRY_AFTER_SECONDS
        return None

    def note_shed(self, op: str) -> None:
        """Record that the admission pipeline shed one ``op`` request."""
        with self._lock:
            self._last_shed_mono = self._clock()
            self._shed_total += 1
            self._shed_by_op[op] = self._shed_by_op.get(op, 0) + 1

    # ------------------------------------------------------------- reports
    def summary(self) -> dict:
        """The compact section ``stats`` readouts carry: readiness, its
        reasons, and the window they were judged over."""
        ready, reasons = self.ready()
        return {
            "ready": ready,
            "reasons": reasons,
            "window_seconds": self.window()["seconds"],
        }

    def health(self) -> dict:
        """The full health report (the ``health`` RPC's payload).

        JSON-ready; schema-additive consumers should tolerate new keys.
        """
        window = self.window()
        burn = self._burn()
        ready, reasons = self.ready()
        ops = {}
        for op, report in sorted(window["ops"].items()):
            entry = dict(report)
            spec = OP_TABLE.get(op)
            if spec is not None:
                entry["objective_p99_seconds"] = spec.p99_seconds
                p99 = report.get("p99")
                entry["breach"] = bool(p99 is not None and p99 > spec.p99_seconds)
            ops[op] = entry
        with self._lock:
            shed = {
                "active": self._shedding_active(),
                "total": self._shed_total,
                "by_op": dict(self._shed_by_op),
            }
        return {
            "alive": self.alive(),
            "ready": ready,
            "reasons": reasons,
            "generated_at": self._wallclock(),
            "window_seconds": window["seconds"],
            "ops": ops,
            "denied": window["denied"],
            "lock_wait": window["lock_wait"],
            "burn": burn,
            "shedding": shed,
        }


__all__ = [
    "AVAILABILITY",
    "BURN_THRESHOLD",
    "MIN_SAMPLES",
    "RETRY_AFTER_SECONDS",
    "SHED_EXEMPT_OPS",
    "TICK_SECONDS",
    "WINDOW_SECONDS",
    "HealthMonitor",
]
