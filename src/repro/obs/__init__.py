"""repro.obs: the unified telemetry subsystem.

Small, dependency-free pieces:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges, and histograms with label sets, rendered in
  Prometheus text format (``GET /metrics`` on both HTTP endpoints) and
  as plain-dict snapshots (the ``stats`` RPC op, benchmark dumps);
* :mod:`repro.obs.trace` — a span :class:`Tracer` whose context
  propagates hub admission → server op → lock wait → chunk I/O, so one
  push yields one correlated trace in a bounded buffer of JSON-ready
  span dicts (the health model reads its error rate from it);
* :mod:`repro.obs.propagation` — the wire bridge: clients stamp the
  current span into the request envelope (``trace_ctx``), servers adopt
  it, so one trace spans processes;
* :mod:`repro.obs.events` — structured one-line JSON log events
  (startup readiness, transport reconnect warnings);
* :mod:`repro.obs.slo` / :mod:`repro.obs.health` — the self-aware
  serving pair: declarative per-op latency objectives with error-budget
  burn windows, and the sliding-window :class:`HealthMonitor` that
  derives per-op percentiles, error rate, denial mix, and queue/lock
  pressure from the registry and tracer — feeding ``/healthz`` /
  ``/readyz``, the ``health`` RPC op, and the hub's overload shedding.

Both metrics and tracing follow the same null-default discipline:
library code resolves its sink via ``default_registry()`` /
``default_tracer()``, which return shared no-op singletons unless the
process :func:`installed <repro.obs.metrics.install>` real ones — so an
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
from .propagation import (
    TRACE_CTX_KEY,
    RemoteSpanContext,
    adopt_remote_context,
    current_trace_context,
    inject,
    parse_trace_context,
)
from .slo import DEFAULT_OP_OBJECTIVES, SLOConfig, SLObjective
from .trace import NULL_TRACER, Span, Tracer, default_tracer

__all__ = [
    "DEFAULT_OP_OBJECTIVES",
    "HealthMonitor",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "RemoteSpanContext",
    "SHED_EXEMPT_OPS",
    "SLOConfig",
    "SLObjective",
    "Span",
    "TRACE_CTX_KEY",
    "Tracer",
    "adopt_remote_context",
    "current_trace_context",
    "default_registry",
    "default_tracer",
    "emit",
    "inject",
    "parse_trace_context",
]
