"""Span export: a bounded background pipeline from tracer to collector.

Finished spans are handed to :meth:`SpanExporter.export` (wire it as the
tracer's ``on_span``), filtered by an :class:`ExportPolicy`, queued, and
flushed by one daemon thread as JSON lines — to a file sink, an HTTP
collector endpoint, or any callable. The hot path (a request finishing
a span) pays one policy check and one bounded-deque append; everything
that can block (disk, sockets) happens on the exporter thread.

Keep/drop semantics compose three signals:

* **head sampling** — the span's ``sampled`` flag, decided once at the
  trace root (deterministically from the trace id, see
  :class:`repro.obs.trace.Tracer`) and propagated across the wire, so
  client and server export the same subset;
* **always-sample on error** — a span with ``status="error"`` is kept
  regardless, because the traces worth money are the ones that failed;
* **always-sample on latency** — a span slower than its op's threshold
  is kept regardless. The thresholds are the serving process's slow-op
  capture thresholds (:meth:`repro.obs.slowops.SlowOpCapture.threshold_for`),
  so "slow" means one thing to the capture ring and to the exporter.

The queue is bounded and *lossy by design*: when the collector cannot
keep up, the oldest queued spans are dropped and counted
(``dropped``) — telemetry backpressure must never become request
backpressure.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Callable
from urllib.parse import urlparse


class ExportPolicy:
    """Which finished spans are worth exporting: sampled ones, failed
    ones, and slow ones.

    ``threshold_for`` maps an op name (the span's ``op`` attribute,
    falling back to the span name) to its latency threshold in seconds,
    or None for no latency override; without it no span is kept for
    being slow.
    """

    def __init__(self, threshold_for: Callable[[str], float | None] | None = None):
        self.threshold_for = threshold_for

    def keep(self, span: dict) -> bool:
        if span.get("sampled", True) or span.get("status") == "error":
            return True
        if self.threshold_for is None:
            return False
        op = span.get("attrs", {}).get("op") or span.get("name")
        threshold = self.threshold_for(op)
        seconds = span.get("seconds")
        return (
            threshold is not None
            and seconds is not None
            and seconds >= threshold
        )


class FileSpanSink:
    """Appends spans as JSON lines to a file (opened per flush, so the
    file can be rotated away between flushes without a stale handle)."""

    def __init__(self, path: str):
        self.path = path

    def __call__(self, spans: list[dict]) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class HttpSpanSink:
    """POSTs each flush batch as one ``application/x-ndjson`` body.

    Stdlib-only (http.client), one short-lived connection per flush —
    exporter traffic is batched and rare, so connection reuse is not
    worth a pooling state machine here. Collector errors raise; the
    exporter counts the batch as dropped and keeps serving.
    """

    def __init__(self, url: str, timeout: float = 5.0):
        parsed = urlparse(url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ValueError(f"collector URL must be http(s)://, got {url!r}")
        self.url = url
        self._parsed = parsed
        self.timeout = timeout

    def __call__(self, spans: list[dict]) -> None:
        import http.client

        body = "\n".join(
            json.dumps(span, sort_keys=True) for span in spans
        ).encode("utf-8")
        cls = (
            http.client.HTTPSConnection
            if self._parsed.scheme == "https"
            else http.client.HTTPConnection
        )
        conn = cls(self._parsed.netloc, timeout=self.timeout)
        try:
            conn.request(
                "POST",
                self._parsed.path or "/",
                body=body,
                headers={"Content-Type": "application/x-ndjson"},
            )
            response = conn.getresponse()
            response.read()
            if response.status >= 400:
                raise OSError(
                    f"collector answered HTTP {response.status} for "
                    f"{len(spans)} spans"
                )
        finally:
            conn.close()


def sink_for(destination: str):
    """A sink from a CLI-shaped destination: an http(s) collector URL or
    a file path (anything else)."""
    if destination.startswith(("http://", "https://")):
        return HttpSpanSink(destination)
    return FileSpanSink(destination)


class SpanExporter:
    """Bounded background exporter; wire ``exporter.export`` as the
    tracer's ``on_span``.

    ``max_queue`` bounds memory between flushes (oldest dropped first);
    ``flush_interval`` paces the background thread. :meth:`flush` drains
    synchronously — tests and process shutdown use it so no span is
    lost to timing.
    """

    def __init__(
        self,
        sink,
        policy: ExportPolicy | None = None,
        max_queue: int = 2048,
        flush_interval: float = 0.5,
    ):
        self.sink = sink
        self.policy = policy if policy is not None else ExportPolicy()
        self.flush_interval = flush_interval
        self._queue: deque[dict] = deque(maxlen=max(1, max_queue))
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.exported = 0
        self.dropped = 0
        self.filtered = 0

    # ------------------------------------------------------------ hot path
    def export(self, span: dict) -> None:
        """Enqueue one finished span (the tracer's ``on_span`` hook)."""
        if not self.policy.keep(span):
            with self._lock:
                self.filtered += 1
            return
        with self._lock:
            if len(self._queue) == self._queue.maxlen:
                # Lossy on purpose: a stalled collector must cost spans,
                # never request latency or unbounded memory.
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(span)
        self._wake.set()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "SpanExporter":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-span-exporter", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background thread and flush what is queued."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.flush()

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self.flush_interval)
            self._wake.clear()
            self.flush()

    def flush(self) -> int:
        """Synchronously ship everything queued; returns spans shipped."""
        with self._lock:
            batch = list(self._queue)
            self._queue.clear()
        if not batch:
            return 0
        try:
            self.sink(batch)
        except Exception:  # noqa: BLE001 - a broken collector must never
            # take the serving process down; the batch is accounted lost.
            with self._lock:
                self.dropped += len(batch)
            return 0
        with self._lock:
            self.exported += len(batch)
        return len(batch)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "exported": self.exported,
                "dropped": self.dropped,
                "filtered": self.filtered,
                "queued": len(self._queue),
            }


__all__ = [
    "ExportPolicy",
    "FileSpanSink",
    "HttpSpanSink",
    "SpanExporter",
    "sink_for",
]
