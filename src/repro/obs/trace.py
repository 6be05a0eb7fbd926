"""Lightweight request tracing: spans whose context follows the request.

One traced operation is a tree of :class:`Span`\\ s sharing a
``trace_id``: a hub request opens the root, admission/operation/lock/
storage work open children, and the parent of each new span is whatever
span is *current* on this thread of control when it starts. Currency is
a :mod:`contextvars` variable, so the propagation — hub admission →
server op → lock wait → chunk import — costs one context set/reset per
span and needs no plumbing through call signatures.

Finished spans land in a bounded in-memory buffer as plain dicts;
:meth:`Tracer.drain` hands them over as structured JSON-ready events,
newest last. The buffer's reader in a serving process is the health
model, which computes its error rate from the ``server.*`` spans.

The context crosses the wire too: :mod:`repro.obs.propagation` stamps
the current span's ids into a schema-additive ``trace_ctx`` key of the
request envelope, and the server side adopts it — so a client push, the
hub's admission path, and the per-repo server share *one* trace, which
``trace_forensics`` joins back to the lineage ledger.

Null default: code resolves its tracer via :func:`default_tracer`,
which returns the no-op :data:`NULL_TRACER` unless :func:`install` was
called. A null span is a shared singleton whose ``__enter__``/
``__exit__`` do nothing, so uninstrumented hot paths pay an attribute
lookup and two empty calls.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from random import getrandbits as _getrandbits

_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def _new_id() -> str:
    # Correlation ids, not secrets: the module PRNG (one C call under the
    # GIL, thread-safe) instead of a getrandom(2) system call per span.
    return f"{_getrandbits(64):016x}"


def current_span() -> "Span | None":
    """The innermost span open on this thread of control, or None.

    Reads the contextvar directly, so it sees spans opened through *any*
    tracer instance — unlike :meth:`NullTracer.current`, which always
    answers None. Event stamping and lineage capture use this: they join
    to whatever trace is live regardless of which tracer owns it.
    """
    return _current.get()


class Span:
    """One timed unit of work; a context manager.

    Attributes are free-form key/values (kept JSON-serializable by
    convention). An exception escaping the ``with`` body marks the span
    ``status="error"`` and records the exception before re-raising.
    """

    __slots__ = (
        "tracer", "name", "attrs", "trace_id", "span_id", "parent_id",
        "start", "seconds", "status", "_t0", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.start: float | None = None
        self.seconds: float | None = None
        self.status = "ok"
        self._t0: float | None = None
        self._token = None

    def set(self, **attrs) -> "Span":
        """Attach attributes to a live span; returns the span.

        A finished span is an event in the buffer, and readers of the
        buffer may already have taken their copy of it: a later write
        raises."""
        if self.seconds is not None:
            raise RuntimeError(f"span {self.name!r} already finished")
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        # The parent is whatever is current on this thread of control: a
        # live local Span, or an adopted remote context (a lightweight
        # trace_id/span_id pair installed by repro.obs.propagation when
        # the request arrived over the wire).
        parent = _current.get()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = _new_id()
            self.parent_id = None
        self.span_id = _new_id()
        self.start = time.time()
        self._t0 = time.perf_counter()
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        _current.reset(self._token)
        self._token = None  # the token pins the parent span
        self.tracer._finish(self)
        return False

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Span factory plus a bounded buffer of finished spans.

    ``max_spans`` bounds memory: a long-lived server traced forever
    keeps only the newest spans (the deque drops from the front).
    """

    def __init__(self, max_spans: int = 10000):
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=max(1, max_spans))
        self.spans_recorded = 0

    def span(self, name: str, **attrs) -> Span:
        """A new span; enter it with ``with tracer.span("name"): ...``."""
        return Span(self, name, attrs)

    def record(self, name: str, seconds: float, **attrs) -> None:
        """Record an already-elapsed interval as a finished child span.

        For durations measured by code that cannot wrap the interval in
        a ``with`` block (a lock's internal wait, a callback's timing):
        the span parents onto the *current* span and backdates its start
        by ``seconds``.
        """
        parent = _current.get()
        span = Span(self, name, attrs)
        if parent is not None:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        else:
            span.trace_id = _new_id()
            span.parent_id = None
        span.span_id = _new_id()
        span.start = time.time() - seconds
        span.seconds = seconds
        self._finish(span)

    def current(self) -> Span | None:
        """The span currently open on this thread of control, if any."""
        return _current.get()

    def _finish(self, span: Span) -> None:
        # The span itself is buffered, not its dict: a finished span
        # refuses writes (Span.set), so converting on read is the same
        # event, and the request path never pays for the conversion.
        with self._lock:
            self._finished.append(span)
            self.spans_recorded += 1

    def drain(self) -> list[dict]:
        """Remove and return all buffered finished spans, oldest first."""
        with self._lock:
            spans = list(self._finished)
            self._finished.clear()
        return [span.to_dict() for span in spans]

    def finished(self) -> list[dict]:
        """Buffered finished spans, oldest first (without draining)."""
        with self._lock:
            spans = list(self._finished)
        return [span.to_dict() for span in spans]


# --------------------------------------------------------------- null layer
class _NullSpan:
    """Shared no-op span: context manager and attribute sink."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs):
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer-shaped no-op; the module default until :func:`install`."""

    def span(self, name: str, **attrs):
        return NULL_SPAN

    def record(self, name: str, seconds: float, **attrs) -> None:
        pass

    def current(self):
        return None

    def drain(self) -> list[dict]:
        return []

    def finished(self) -> list[dict]:
        return []


NULL_TRACER = NullTracer()

_default: Tracer | NullTracer = NULL_TRACER


def install(tracer: Tracer):
    """Make ``tracer`` the process-wide default (returns it)."""
    global _default
    _default = tracer
    return tracer


def uninstall() -> None:
    """Restore the no-op default."""
    global _default
    _default = NULL_TRACER


def default_tracer():
    """The installed tracer, or :data:`NULL_TRACER` when none is."""
    return _default
