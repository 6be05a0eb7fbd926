"""Content-addressed chunk stores (memory- and file-backed).

The chunk store is the bottom layer of the ForkBase-like engine: it maps
SHA-256 digests to immutable byte chunks. Writing the same content twice
stores it once — the counters distinguish *logical* bytes (what callers
asked to store) from *physical* bytes (what the store actually holds), which
is exactly the gap Fig. 7 of the paper plots between MLCask and the
folder-archival baselines.
"""

from __future__ import annotations

import contextlib
import os
import threading
from abc import ABC, abstractmethod
from collections.abc import Iterable
from time import perf_counter

from ..errors import ChunkIntegrityError, ChunkNotFoundError
from .accounting import StorageStats
from .hashing import sha256_hex


def write_atomic(path: str, data: bytes, sync: bool = False) -> None:
    """Publish ``data`` under ``path`` by write-to-temp + rename.

    The temp name is unique per writer (process and thread), so two
    writers of one path never share a temp file and a rename can only
    publish bytes its own writer finished; a failed write removes its
    temp. Leftovers of a killed process end in ``.tmp`` and are ignored
    by every reader of the directory.

    ``sync`` makes the publication durable before returning: the bytes
    are flushed to disk before the rename, the directory after it. For a
    file whose rename commits other files (the hub's repository header);
    content-addressed chunks can be re-sent and skip the two flushes."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            if sync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if sync:
        directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


class ChunkStore(ABC):
    """Interface shared by the memory and file backends.

    ``revision`` counts membership changes (a chunk added or removed) — a
    cheap staleness token for consumers like the remote server's response
    cache; reads and dedup hits do not move it.
    """

    def __init__(self) -> None:
        self.stats = StorageStats()
        self.revision = 0

    @abstractmethod
    def _contains(self, digest: str) -> bool: ...

    @abstractmethod
    def _write(self, digest: str, data: bytes) -> None: ...

    @abstractmethod
    def _read(self, digest: str) -> bytes:
        """The chunk's bytes, or :class:`ChunkNotFoundError` — the read
        *is* the membership test, :meth:`get` does not pre-check."""

    @abstractmethod
    def _delete(self, digest: str) -> None: ...

    @abstractmethod
    def digests(self) -> list[str]:
        """All digests currently held (for audits and garbage accounting)."""

    def _size(self, digest: str) -> int:
        """Size of a held chunk. Backends override when they can answer
        without materializing the content (a GC sweep of gigabytes of
        dead chunks must not read them just to count them)."""
        return len(self._read(digest))

    def put(self, data: bytes) -> str:
        """Store ``data``; return its digest. Duplicate content is free.

        The one-piece case of :meth:`put_many`: there is one write path.
        """
        return self.put_many((data,))[0]

    def put_many(self, pieces: Iterable[bytes | bytearray | memoryview]) -> list[str]:
        """Store the pieces of one blob; return their digests in order.

        Runs once per blob, on what the chunker hands out: zero-copy
        views. A piece is hashed as it stands, and only one the store
        lacks is copied (``bytes(piece)``: a content address never
        aliases memory the caller can still change, and a stored view
        would pin its whole parent blob); a dedup hit costs its hash and
        one membership test. The batch is one clock window — hashing
        stays outside it, as for a single put — and one accounting step,
        which also books what landed before a ``_write`` that raises:
        the piece that failed counts as asked for, not as stored.
        """
        pieces = list(pieces)  # walked twice: hashed, then stored
        digests = [sha256_hex(piece) for piece in pieces]
        contains, write = self._contains, self._write
        logical = written = hits = novel = asked = 0
        start = perf_counter()
        try:
            for digest, piece in zip(digests, pieces):
                size = len(piece)
                logical += size
                asked += 1
                if contains(digest):
                    hits += size
                else:
                    write(digest, bytes(piece))
                    written += size
                    novel += 1
        finally:
            self.revision += novel
            self.stats.record_put(asked, logical, written, hits, perf_counter() - start)
        return digests

    def get(self, digest: str) -> bytes:
        """Fetch the chunk for ``digest`` or raise :class:`ChunkNotFoundError`.

        Runs once per chunk served: one ``_read`` (the membership test)
        and one accounting step, which a miss never reaches.
        """
        start = perf_counter()
        data = self._read(digest)
        self.stats.record_read(len(data), perf_counter() - start)
        return data

    def contains(self, digest: str) -> bool:
        return self._contains(digest)

    def discard(self, digest: str) -> int:
        """Drop a chunk; returns the physical bytes reclaimed (0 if absent).

        For garbage sweeps and deletion mirroring — content addressing
        makes re-adding the same bytes later completely safe.
        """
        if not self._contains(digest):
            return 0
        size = self._size(digest)
        self._delete(digest)
        self.stats.record_physical(-size)
        self.revision += 1
        return size

    def missing(self, digests) -> list[str]:
        """Subset of ``digests`` this store does not hold (order kept).

        This is the have/want negotiation primitive of the remote sync
        protocol: a peer offers the digests reachable from the refs being
        synced, and only the ones reported missing cross the wire.
        """
        seen: set[str] = set()
        wanted = []
        for digest in digests:
            if digest in seen:
                continue
            seen.add(digest)
            if not self._contains(digest):
                wanted.append(digest)
        return wanted

    def import_chunk(self, digest: str, data: bytes) -> bool:
        """Store a chunk received under a claimed ``digest``.

        Unlike :meth:`put`, the address is asserted by the sender, so the
        content is re-hashed and a mismatch raises
        :class:`ChunkIntegrityError` before anything is written. Returns
        True when the chunk was new (physical bytes grew), False when it
        was already held. Imported bytes count as physical, not logical —
        nobody *authored* them here, they were replicated.
        """
        if sha256_hex(data) != digest:
            raise ChunkIntegrityError(digest)
        start = perf_counter()
        try:
            if self._contains(digest):
                return False
            self._write(digest, bytes(data))  # a copy unless already bytes
            self.stats.record_physical(len(data))
            self.revision += 1
        finally:
            self.stats.write_seconds += perf_counter() - start
        return True

    def __len__(self) -> int:
        return len(self.digests())


class MemoryChunkStore(ChunkStore):
    """Dict-backed store; the default for tests and experiments."""

    def __init__(self) -> None:
        super().__init__()
        self._chunks: dict[str, bytes] = {}

    def _contains(self, digest: str) -> bool:
        return digest in self._chunks

    def _write(self, digest: str, data: bytes) -> None:
        self._chunks[digest] = data

    def _read(self, digest: str) -> bytes:
        try:
            return self._chunks[digest]
        except KeyError:
            raise ChunkNotFoundError(digest) from None

    def _delete(self, digest: str) -> None:
        del self._chunks[digest]

    def digests(self) -> list[str]:
        return list(self._chunks)


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


class FileChunkStore(ChunkStore):
    """Filesystem-backed store laid out like git's object directory.

    A chunk with digest ``abcdef...`` is written to ``<root>/ab/cdef...``;
    the two-character fan-out keeps directory sizes reasonable. Writes are
    atomic (write to a temp name, then rename) so a crashed writer can never
    leave a truncated chunk under its content address.
    """

    def __init__(self, root: str | os.PathLike[str]):
        super().__init__()
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, digest: str) -> str:
        return f"{self.root}{os.sep}{digest[:2]}{os.sep}{digest[2:]}"

    def _contains(self, digest: str) -> bool:
        return os.path.exists(self._path(digest))

    def _write(self, digest: str, data: bytes) -> None:
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, data)

    def _read(self, digest: str) -> bytes:
        # Four syscalls per chunk: open, fstat, one read of exactly the
        # file's size, close. No buffered file object (it adds an ioctl,
        # two lseeks, a second fstat and a read-to-EOF, each a GIL
        # hand-off), and no fixed oversized read buffer (a 1 MiB request
        # per 5 KB chunk is an mmap per call and shows up as hub RSS).
        try:
            fd = os.open(self._path(digest), _READ_FLAGS)
        except FileNotFoundError:
            raise ChunkNotFoundError(digest) from None
        try:
            size = os.fstat(fd).st_size
            data = os.read(fd, size)
            while len(data) < size:  # short read: keep going to the size
                more = os.read(fd, size - len(data))
                if not more:
                    break  # truncated under us; the caller sees the length
                data += more
            return data
        finally:
            os.close(fd)

    def _size(self, digest: str) -> int:
        return os.path.getsize(self._path(digest))

    def _delete(self, digest: str) -> None:
        path = self._path(digest)
        os.remove(path)
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass  # fan-out dir still has siblings

    def digests(self) -> list[str]:
        found = []
        for fanout in os.listdir(self.root):
            subdir = os.path.join(self.root, fanout)
            if not os.path.isdir(subdir):
                continue
            for name in os.listdir(subdir):
                if not name.endswith(".tmp"):
                    found.append(fanout + name)
        return found
