"""Wire format for the remote-sync protocol: framed JSON + raw chunks.

Every request and response is one *message*: a JSON header (the ``meta``
dict) followed by zero or more opaque binary blobs — chunk payloads
travelling to or from a peer's content-addressed store. The framing is
deliberately git-packfile-ish: metadata is cheap structured text, content
is raw bytes concatenated after it, so measured wire bytes honestly
reflect what a transfer costs (no base64 inflation of chunk data).

Layout::

    MAGIC (4 bytes) | header length (u32 BE) | header JSON (UTF-8) | blobs...

where the header is ``{"meta": {...}, "blob_sizes": [n0, n1, ...]}`` and
the blobs follow back-to-back in declared order. Decoding is strict and
total: any byte string either decodes or raises
:class:`RemoteProtocolError` — bad magic, truncated frames, trailing
garbage and a header that is not a parseable JSON object alike — never
a partial message or another exception type.

The ``meta`` dict carries the operation name (requests) or results
(responses); an error response carries ``{"error": {"type", "message",
...}}`` which :func:`raise_remote_error` maps back onto the library's
exception hierarchy client-side.
"""

from __future__ import annotations

import io
import json
import struct
import sys
from collections.abc import Iterable

from ..errors import (
    AuthenticationError,
    AuthorizationError,
    HubError,
    LineageNotFoundError,
    PushRejectedError,
    QuotaExceededError,
    RemoteError,
    RemoteProtocolError,
    RepositoryNotFoundError,
    ServerOverloadedError,
)
from ..ops import OP_TABLE

MAGIC = b"MLCR"
#: v2: windowed ``get_chunks`` (``remaining`` count, server-enforced
#: ``max_pack_bytes`` bound) and the ``put_chunks`` operation. The bump is
#: deliberate: a v1 peer fetching from a windowing server would silently
#: import a truncated chunk set; a loud version error is the safe failure.
PROTOCOL_VERSION = 2

#: Operations a server understands; anything else is a protocol error.
#: Derived from the op table (:mod:`repro.ops`). Adding an op:
#:
#: 1. add its ``OpSpec(...)`` entry to ``repro.ops.OP_TABLE`` (the
#:    validator is mandatory; ``_no_fields`` when no field is read);
#: 2. add ``RepositoryServer._op_<name>(self, meta, blobs)`` — import
#:    fails while an entry lacks a handler or a handler lacks an entry;
#: 3. optionally add a ``Remote`` method sending ``{"op": "<name>"}``.
#:
#: New ops (``stats``, ``lineage``, ``health`` so far) are
#: schema-additive: old clients never send them, and an old server
#: answers them with a typed unknown-operation error — no version bump
#: needed. Servers ignore meta keys they do not read, so a peer that
#: adds one (an older client's trace context, say) still interoperates.
OPS = tuple(OP_TABLE)

#: Operations that mutate repository state (served under the exclusive
#: side of the server's reader-writer lock); everything else is a read.
WRITE_OPS = frozenset(spec.name for spec in OP_TABLE.values() if spec.write)


def encode_message(
    meta: dict,
    blobs: Iterable[bytes | memoryview] | None = None,
    sizes: list[int] | None = None,
) -> bytes:
    """Frame ``meta`` plus binary ``blobs`` into one wire message.

    ``blobs`` is a list, or — when their ``sizes`` are given — any
    iterable yielding blobs of exactly those sizes, read one at a time:
    the frame is allocated once, at its final size, before the first
    blob is read, and each blob is copied into it and dropped before the
    next one is read. A window of chunks framed straight from a store
    therefore holds the frame and one chunk, never every chunk beside a
    joined copy of them. A blob whose length is not its declared size
    raises :class:`ValueError`.
    """
    if sizes is None:
        blobs = list(blobs or ())
        sizes = [len(blob) for blob in blobs]
    header = json.dumps(
        {"v": PROTOCOL_VERSION, "meta": meta, "blob_sizes": sizes},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    frame = io.BytesIO()
    # Writing the last byte first sizes the buffer exactly, so it never
    # regrows, and getvalue() returns that buffer itself, not a copy.
    frame.seek(8 + len(header) + sum(sizes) - 1)
    frame.write(b"\0")
    frame.seek(0)
    frame.write(MAGIC)
    frame.write(struct.pack(">I", len(header)))
    frame.write(header)
    pending = iter(blobs or ())
    for index, size in enumerate(sizes):
        blob = next(pending, None)
        if blob is None or len(blob) != size:
            raise ValueError(f"blob {index} does not have its declared {size} bytes")
        frame.write(blob)
        del blob  # the next read must not find this one still alive
    if next(pending, None) is not None:
        raise ValueError(f"more blobs than the {len(sizes)} declared sizes")
    return frame.getvalue()


def decode_message(data: bytes) -> tuple[dict, list[memoryview]]:
    """Inverse of :func:`encode_message`; strict about every byte.

    The blobs are zero-copy views into ``data``: whoever keeps one past
    the message's life copies it (``MemoryChunkStore`` does; a
    ``FileChunkStore`` writes the view and keeps nothing), so importing
    a pushed window allocates no per-chunk copy.
    """
    if len(data) < 8 or data[:4] != MAGIC:
        raise RemoteProtocolError("bad magic: not a remote-sync message")
    (header_len,) = struct.unpack(">I", data[4:8])
    header_end = 8 + header_len
    if len(data) < header_end:
        raise RemoteProtocolError("truncated message header")
    try:
        header = json.loads(data[8:header_end].decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and an integer past
        # Python's digit limit; RecursionError, nesting past the stack.
        raise RemoteProtocolError(f"unparseable header: {error}") from None
    if not isinstance(header, dict):
        raise RemoteProtocolError("header is not a JSON object")
    if header.get("v") != PROTOCOL_VERSION:
        raise RemoteProtocolError(
            f"unsupported protocol version {header.get('v')!r}"
        )
    if not isinstance(header.get("meta"), dict):
        raise RemoteProtocolError("header carries no meta object")
    sizes = header.get("blob_sizes", [])
    if not isinstance(sizes, list) or any(
        not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in sizes
    ):
        raise RemoteProtocolError("invalid blob_sizes in header")
    view = memoryview(data)
    blobs = []
    cursor = header_end
    for size in sizes:
        blob = view[cursor : cursor + size]
        if len(blob) != size:
            raise RemoteProtocolError("truncated message blob")
        blobs.append(blob)
        cursor += size
    if cursor != len(data):
        raise RemoteProtocolError("trailing bytes after declared blobs")
    return header["meta"], blobs


def error_response(error: Exception) -> bytes:
    """Serialize a server-side failure into an error message."""
    payload: dict = {
        "type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, PushRejectedError):
        payload.update(
            pipeline=error.pipeline, branch=error.branch, reason=error.reason
        )
    if isinstance(error, ServerOverloadedError):
        payload.update(retry_after=error.retry_after)
    return encode_message({"error": payload})


#: Error types that reconstruct client-side from their message alone.
#: Hub admission denials live here: a client must be able to tell an
#: auth failure from a quota denial programmatically, not by parsing
#: prose. ``LineageNotFoundError`` rides along so a
#: lineage query about an unrecorded ref fails typed, not generic.
TYPED_ERRORS = {
    cls.__name__: cls
    for cls in (
        AuthenticationError,
        AuthorizationError,
        HubError,
        LineageNotFoundError,
        QuotaExceededError,
        RepositoryNotFoundError,
    )
}


def _retry_after(error: dict) -> float:
    """A shed response's backoff hint: a finite, non-negative number of
    seconds (1 when absent). Anything else is the peer's protocol error,
    never a builtin one out of the client's retry loop or its sleep."""
    value = error.get("retry_after", 1.0)
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value <= sys.float_info.max  # NaN fails both
    ):
        return float(value)
    raise RemoteProtocolError(
        f"invalid error response: 'retry_after' must be a finite, "
        f"non-negative number of seconds, not {value!r}"
    )


def raise_remote_error(meta: dict) -> None:
    """Re-raise a server-reported error client-side, typed when possible."""
    error = meta.get("error")
    if error is None:
        return
    if not isinstance(error, dict):
        raise RemoteProtocolError(
            f"invalid error response: 'error' must be an object, not {error!r}"
        )
    kind = error.get("type")
    if kind == "PushRejectedError":
        raise PushRejectedError(
            error.get("pipeline", "?"),
            error.get("branch", "?"),
            error.get("reason", error.get("message", "rejected")),
        )
    if kind == "RemoteProtocolError":
        raise RemoteProtocolError(
            f"remote rejected request: {error.get('message')}"
        )
    if kind == "ServerOverloadedError":
        # Special-cased (not TYPED_ERRORS) to reconstruct the backoff
        # hint: clients schedule their retry off ``retry_after``.
        raise ServerOverloadedError(
            error.get("message", "server overloaded; retry later"),
            retry_after=_retry_after(error),
        )
    typed = TYPED_ERRORS.get(kind) if isinstance(kind, str) else None
    if typed is not None:
        raise typed(error.get("message", "rejected by the remote hub"))
    raise RemoteError(f"remote error: {kind}: {error.get('message')}")
