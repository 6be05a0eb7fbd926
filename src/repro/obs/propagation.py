"""Trace-context propagation: joining spans across the wire.

The tracer's contextvar already carries span currency across in-process
boundaries (client → hub → server on one thread of control), but an HTTP
hop lands the request on a handler thread with an empty context — the
server's spans would start a fresh, disjoint trace. This module is the
bridge:

* the **client** stamps the current span's identity into the request
  envelope (:func:`inject` adds a ``trace_ctx`` key to the ``meta``
  dict — schema-additive, no ``PROTOCOL_VERSION`` bump; a legacy peer
  simply ignores the key);
* the **server** parses it back (:func:`parse_trace_context` — strict,
  but *never* raises: a malformed context is telemetry noise, not a
  protocol error) and adopts it (:func:`adopt_remote_context`) as the
  parent for the spans it opens, so ``hub.request`` → ``server.<op>`` →
  ``lock.*`` → ``storage.import`` join the client's trace.

Adoption is **adopt-only**: it installs the remote parent only when no
local span is already current, so an in-process transport (where the
client's span is literally current on the calling thread) keeps its
natural nesting, and adoption can never shadow live local spans. The
propagated ids are correlation data and nothing else — they are *never*
an input to authentication, authorization, rate limiting, or routing
(see docs/invariants.md): a peer lying about its trace id can only
mislabel its own telemetry.
"""

from __future__ import annotations

import contextlib
import re

from . import trace as obs_trace

#: The request-envelope key the context rides under (in ``meta``).
TRACE_CTX_KEY = "trace_ctx"

#: Span/trace ids are lowercase hex (os.urandom(8).hex() today); accept
#: up to 64 chars so longer ids from future/foreign emitters still join.
_ID_RE = re.compile(r"^[0-9a-f]{1,64}$")


class RemoteSpanContext:
    """A parent that lives on the other side of the wire.

    Duck-typed to what :meth:`Span.__enter__` reads off a parent —
    ``trace_id`` and ``span_id``, nothing more: it cannot be entered,
    timed, or finished, because the real span is remote.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id


def current_trace_context() -> dict | None:
    """The wire form of the innermost live span, or None when untraced.

    Works across tracer instances (it reads the shared contextvar) and
    also sees an *adopted* remote context, so a relaying hop forwards
    the original trace rather than minting its own.
    """
    span = obs_trace.current_span()
    if span is None or span.trace_id is None or span.span_id is None:
        return None
    return {"trace_id": span.trace_id, "span_id": span.span_id}


def inject(meta: dict) -> dict:
    """``meta`` with the current trace context stamped in (a copy), or
    ``meta`` unchanged when no span is live — untraced clients put
    nothing extra on the wire, byte-for-byte."""
    context = current_trace_context()
    if context is None:
        return meta
    stamped = dict(meta)
    stamped[TRACE_CTX_KEY] = context
    return stamped


def parse_trace_context(meta) -> RemoteSpanContext | None:
    """The inherited context of a request envelope, or None.

    Strict about shape (both ids must be hex strings) but *never
    raises*: an absent key means a legacy peer, a malformed one is
    ignored the same way — propagation is telemetry, and telemetry must
    not be able to fail a request.
    """
    if not isinstance(meta, dict):
        return None
    context = meta.get(TRACE_CTX_KEY)
    if not isinstance(context, dict):
        return None
    trace_id = context.get("trace_id")
    span_id = context.get("span_id")
    if not isinstance(trace_id, str) or not _ID_RE.match(trace_id):
        return None
    if not isinstance(span_id, str) or not _ID_RE.match(span_id):
        return None
    return RemoteSpanContext(trace_id, span_id)


#: What :func:`adopt_remote_context` returns when it adopts nothing.
_NOT_ADOPTED = contextlib.nullcontext(False)


def adopt_remote_context(context: RemoteSpanContext | None):
    """Make ``context`` the parent for spans opened in the body.

    Adopt-only: when ``context`` is None — or a local span is already
    current on this thread of control (the in-process transport case,
    where the client's own span *is* the right parent and carries the
    same trace) — this is a no-op, and costs no generator on the request
    path. Yields whether adoption happened.
    """
    if context is None or obs_trace.current_span() is not None:
        return _NOT_ADOPTED
    return _adopted(context)


@contextlib.contextmanager
def _adopted(context: RemoteSpanContext):
    token = obs_trace._current.set(context)
    try:
        yield True
    finally:
        obs_trace._current.reset(token)


__all__ = [
    "TRACE_CTX_KEY",
    "RemoteSpanContext",
    "adopt_remote_context",
    "current_trace_context",
    "inject",
    "parse_trace_context",
]
