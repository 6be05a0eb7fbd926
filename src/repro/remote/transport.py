"""Transports: how encoded messages reach a repository server.

A transport moves opaque request bytes to a server and response bytes
back — it knows nothing about operations or packs. ``bytes_sent`` and
``bytes_received`` count RPC message bytes: each whole ``MLCR`` frame
(magic, header length, JSON header, blobs), the same on every transport.
They leave out what HTTP adds around a frame — the request line, the
status line and the headers: 286 bytes per ``manifest`` round trip to a
local ``repro serve``, against 135 bytes of messages, and more with a
hub's token header — and TCP/IP overhead. The remote-sync benchmark
reads these counters to compare incremental push against naive full
copy, and the performance budget's ``wire_bytes`` rows inherit the
same definition.

* :class:`LocalTransport` — calls a :class:`RepositoryServer` in-process.
  Zero infrastructure; the default for tests, examples, and directory
  remotes (``repro push /path/to/repo``).
* :class:`HttpTransport` — POSTs messages to a running ``repro serve``
  endpoint over a real socket, via the stdlib ``http.client``. The
  connection is *persistent* (HTTP/1.1 keep-alive): one TCP handshake
  amortizes over a whole sync conversation, and a pooled socket that has
  gone stale (the server idle-closed it between requests) is re-opened
  transparently, replaying the request that found it dead.
"""

from __future__ import annotations

import http.client
import socket
import threading
import urllib.parse
from abc import ABC, abstractmethod

from ..errors import TransportError
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics

RPC_PATH = "/rpc"


class Transport(ABC):
    """Byte-level request/response channel with transfer accounting."""

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests = 0

    def call(self, payload: bytes) -> bytes:
        """Deliver one request; return the server's response bytes."""
        self.requests += 1
        self.bytes_sent += len(payload)
        response = self._call(payload)
        self.bytes_received += len(response)
        return response

    @abstractmethod
    def _call(self, payload: bytes) -> bytes: ...

    @property
    def bytes_transferred(self) -> int:
        """Total traffic in both directions."""
        return self.bytes_sent + self.bytes_received

    def reset_counters(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.requests = 0

    def close(self) -> None:
        """Release any held connection; safe to call repeatedly."""


class LocalTransport(Transport):
    """In-process transport wrapping a :class:`RepositoryServer`."""

    def __init__(self, server):
        super().__init__()
        self.server = server

    def _call(self, payload: bytes) -> bytes:
        return self.server.handle_bytes(payload)


def _error_detail(body: bytes) -> str:
    """Best-effort extraction of a server error body for a 5xx message."""
    from .protocol import decode_message

    try:
        meta, _ = decode_message(body)
        error = meta.get("error") or {}
        return f": {error.get('type')}: {error.get('message')}"
    except Exception:  # noqa: BLE001 - the body is untrusted bytes
        if body:
            return f": {body[:200]!r}"
        return ""


class HttpTransport(Transport):
    """Real-socket transport speaking to a ``serve()`` endpoint.

    One :class:`http.client.HTTPConnection` persists across calls.
    ``reconnects`` counts how many times a stale keep-alive socket had to
    be re-established — a server restart shows up here, not as a failure.
    """

    def __init__(
        self, url: str, timeout: float = 30.0, token: str | None = None
    ):
        super().__init__()
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme not in ("http", "https"):
            raise TransportError(f"unsupported URL scheme {parsed.scheme!r}")
        if not parsed.hostname:
            raise TransportError(f"no host in remote URL {url!r}")
        self.scheme = parsed.scheme
        self.host = parsed.hostname
        self.port = parsed.port or (443 if parsed.scheme == "https" else 80)
        # Accept both the base URL and the full endpoint serve() prints
        # ("http://host:port/rpc") — either way we POST to exactly /rpc.
        path = parsed.path.rstrip("/")
        if path.endswith(RPC_PATH):
            path = path[: -len(RPC_PATH)]
        self.path = path + RPC_PATH
        self.timeout = timeout
        # Bearer token for multi-tenant hubs; plain servers ignore it.
        self._headers = {"Content-Type": "application/octet-stream"}
        if token is not None:
            self._headers["Authorization"] = f"Bearer {token}"
        self.reconnects = 0
        # Null unless a registry was installed process-wide: a CLI client
        # pays nothing, a hub scrape sees flapping backends per host.
        self._m_reconnects = obs_metrics.default_registry().counter(
            "repro_transport_reconnects_total",
            "Stale keep-alive sockets re-established (request replayed).",
            labels=("host",),
        ).labels(host=f"{self.host}:{self.port}")
        self._connection: http.client.HTTPConnection | None = None
        # One request in flight per connection: callers sharing a Remote
        # across threads (fine before connections persisted) must not
        # interleave request/getresponse on the pooled socket.
        self._lock = threading.Lock()

    def _open(self) -> http.client.HTTPConnection:
        connection_cls = (
            http.client.HTTPSConnection
            if self.scheme == "https"
            else http.client.HTTPConnection
        )
        connection = connection_cls(self.host, self.port, timeout=self.timeout)
        connection.connect()
        # Request headers and body are written separately; without
        # TCP_NODELAY the body write can stall ~40ms behind the server's
        # delayed ACK (Nagle). An RPC round-trip wants both segments now.
        connection.sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return connection

    def close(self) -> None:
        # Serialized with _call: closing mid-request would yank the socket
        # out from under another thread's in-flight sync.
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except OSError:
                pass
            self._connection = None

    def _early_response(self, error: Exception) -> tuple[int, bytes] | None:
        """A non-200 response the server sent before our body finished.

        Only consulted on a send-phase pipe error: if the server rejected
        the request early (413 and closed), its response line is already
        on the socket and is the real diagnosis.
        """
        if not isinstance(error, (BrokenPipeError, ConnectionResetError)):
            return None
        connection = self._connection
        if connection is None:
            return None
        try:
            response = connection.getresponse()
            body = response.read()
        except Exception:  # noqa: BLE001 - nothing arrived; not an early reply
            return None
        if response.status == 200:
            return None  # a full success cannot follow a failed send
        return response.status, body

    def _note_reconnect(self, payload: bytes, phase: str) -> None:
        """Account one stale-socket replay (both reconnect sites).

        The replay re-transmits the payload, so the wire counters are
        bumped to stay honest about what actually crossed; the warning
        event gives operators a structured line per flap.
        """
        self.reconnects += 1
        self.requests += 1
        self.bytes_sent += len(payload)
        self._m_reconnects.inc()
        obs_events.emit(
            "transport.reconnect",
            host=self.host,
            port=self.port,
            phase=phase,
            reconnects=self.reconnects,
        )

    def _call(self, payload: bytes) -> bytes:
        with self._lock:
            return self._call_locked(payload)

    def _call_locked(self, payload: bytes) -> bytes:
        reused = self._connection is not None
        while True:
            try:
                if self._connection is None:
                    self._connection = self._open()
                connection = self._connection
                connection.request(
                    "POST", self.path, body=payload, headers=self._headers
                )
            except (OSError, http.client.HTTPException) as error:
                # The server may have answered-and-closed without reading
                # the whole body (HTTP 413 on an oversized request): that
                # early response is the real diagnosis — surface it
                # instead of the broken pipe, and never replay the send.
                early = self._early_response(error)
                if early is not None:
                    status, body = early
                    self._close_locked()
                    raise TransportError(
                        f"server returned HTTP {status} for "
                        f"{self.path}{_error_detail(body)}"
                    ) from error
                # Send-phase failure: the request never fully reached the
                # server, so replaying it on a fresh socket is always safe
                # — but only a *reused* socket gets the benefit of the
                # doubt (a fresh one failing means the endpoint is down).
                self._close_locked()
                if reused:
                    reused = False
                    self._note_reconnect(payload, phase="send")
                    continue
                raise TransportError(
                    f"request to {self.host}:{self.port} failed: {error}"
                ) from error
            try:
                response = connection.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException) as error:
                self._close_locked()
                if reused and isinstance(error, http.client.RemoteDisconnected):
                    # The stale keep-alive race: the server idle-closed the
                    # pooled socket and never issued a response line, so
                    # the request was not processed — replay once. Any
                    # other receive failure (reset mid-body, truncated
                    # read) may follow a request the server *did* execute;
                    # surface it instead of risking a double apply.
                    reused = False
                    self._note_reconnect(payload, phase="receive")
                    continue
                raise TransportError(
                    f"request to {self.host}:{self.port} failed: {error}"
                ) from error
            if response.will_close:
                # The server asked for this connection not to be reused.
                self._close_locked()
            if response.status != 200:
                self._close_locked()
                raise TransportError(
                    f"server returned HTTP {response.status} for "
                    f"{self.path}{_error_detail(body)}"
                )
            return body
