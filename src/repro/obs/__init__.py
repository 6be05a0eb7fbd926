"""repro.obs: the unified telemetry subsystem.

Small, dependency-free pieces:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges, and histograms with label sets, rendered in
  Prometheus text format (``GET /metrics`` on both HTTP endpoints) and
  as plain-dict snapshots (the ``stats`` RPC op, benchmark dumps);
* :mod:`repro.obs.events` — structured one-line JSON log events
  (startup readiness, transport reconnect warnings);
* :mod:`repro.obs.health` — self-aware serving: the sliding-window
  :class:`HealthMonitor` that derives per-op percentiles, error-budget
  burn, denial mix, and lock pressure from the registry alone, judged
  by one fixed policy (each op's objective is its ``p99_seconds`` in the
  op table) — feeding ``/healthz`` / ``/readyz``, the ``health`` RPC op,
  and the hub's overload shedding.

The registry is the one telemetry stream, and it has a null default:
library code resolves its sink via ``default_registry()``, which returns
a shared no-op singleton unless the process
:func:`installed <repro.obs.metrics.install>` a real one — so an
uninstrumented run pays near-zero overhead, and nothing anywhere needs
an ``if registry is not None`` guard.
"""

from .events import emit
from .health import SHED_EXEMPT_OPS, HealthMonitor
from .metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    default_registry,
)

__all__ = [
    "HealthMonitor",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "SHED_EXEMPT_OPS",
    "default_registry",
    "emit",
]
