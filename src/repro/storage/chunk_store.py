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
import re
import struct
import sys
import threading
from abc import ABC, abstractmethod
from collections.abc import Iterable
from time import perf_counter

from ..errors import ChunkIntegrityError, ChunkNotFoundError, StorageError
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
    file whose rename commits other files (a repository's header)."""
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
        _fsync_directory(os.path.dirname(path) or ".")


def _fsync_directory(path: str) -> None:
    """Make the names created or renamed in ``path`` durable."""
    directory = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


#: What a piece's index key holds besides its length: its first and its
#: last this many bytes (overlapping in a piece shorter than twice it).
_EDGE_BYTES = 16
_pack_length = struct.Struct(">Q").pack


def _piece_key(piece) -> bytes:
    """``put_many``'s index key: length, head and tail of the piece."""
    return _pack_length(len(piece)) + piece[:_EDGE_BYTES] + piece[-_EDGE_BYTES:]


class ChunkStore(ABC):
    """Interface shared by the memory and file backends.

    ``revision`` counts membership changes (a chunk added or removed) — a
    cheap staleness token for consumers like the remote server's response
    cache; reads and dedup hits do not move it.
    """

    def __init__(self) -> None:
        self.stats = StorageStats()
        self.revision = 0
        #: :meth:`put_many`'s index: a piece's key (:func:`_piece_key`) ->
        #: the digest of the last piece with that key it hashed or
        #: confirmed. Only a hint: a digest is reused for bytes equal to
        #: the chunk held under it, never on the key alone.
        self._learned: dict[bytes, str] = {}

    @abstractmethod
    def _contains(self, digest: str) -> bool: ...

    @abstractmethod
    def _write(self, digest: str, data: bytes | memoryview) -> None:
        """Hold ``data`` under ``digest``. ``data`` may be a view into a
        buffer the caller still owns (a wire message, a chunked blob):
        a store that keeps the bytes in memory copies them, one that
        writes them out does not."""

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

    @staticmethod
    def canonical(digests: tuple[str, ...]) -> tuple[str, ...]:
        """``digests`` as a recipe registered against this store keeps
        them. The base keeps them as decoded; a store that outlives many
        recipes naming the same chunks (a hub's tenant view) gives each
        digest one shared string. Runs on decoded, validated rows."""
        return digests

    def put(self, data: bytes) -> str:
        """Store ``data``; return its digest. Duplicate content is free.

        The one-piece case of :meth:`put_many`: there is one write path.
        """
        return self.put_many((data,))[0]

    def put_many(self, pieces: Iterable[bytes | bytearray | memoryview]) -> list[str]:
        """Store the pieces of one blob; return their digests in order.

        Runs once per blob, on what the chunker hands out: zero-copy
        views. A piece whose key (length, first and last 16 bytes) the
        index knows is compared byte for byte with the chunk held under
        the indexed digest, read through ``_read`` so no read counter
        moves; only a piece with no confirmed match is hashed. Only a
        piece the store lacks is stored, handed to ``_write`` as it came
        (a store that keeps bytes in memory copies it there); a dedup
        hit costs a key lookup, one comparison and one membership
        test. The batch is one clock window — the lookups
        and hashing stay outside it, as for a single put — and one
        accounting step, which also books what landed before a
        ``_write`` that raises: the piece that failed counts as asked
        for, not as stored.
        """
        pieces = list(pieces)  # walked twice: digested, then stored
        digests = self._digests_of(pieces)
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
                    write(digest, piece)
                    written += size
                    novel += 1
        finally:
            self.revision += novel
            self.stats.record_put(asked, logical, written, hits, perf_counter() - start)
        return digests

    def _digests_of(self, pieces: list) -> list[str]:
        """Each piece's digest: the indexed one when the chunk held under
        it has the piece's bytes, else the piece's SHA-256, which the
        index then learns (the latest piece of a key wins). A confirming
        read that fails — the chunk was discarded, or lost behind the
        store — is a miss like any other."""
        learned, read = self._learned, self._read
        digests = []
        for piece in pieces:
            key = _piece_key(piece)
            digest = learned.get(key)
            if digest is not None:
                try:
                    if read(digest) == bytes(piece):
                        digests.append(digest)
                        continue
                except StorageError:
                    pass
            digest = learned[key] = sha256_hex(piece)
            digests.append(digest)
        return digests

    def get(self, digest: str) -> bytes:
        """Fetch the chunk for ``digest`` or raise :class:`ChunkNotFoundError`.

        Runs once per chunk served: one ``_read`` (the membership test)
        and one accounting step, which a miss never reaches.
        """
        start = perf_counter()
        data = self._read(digest)
        self.stats.record_reads(1, len(data), perf_counter() - start)
        return data

    def join(self, digests: Iterable[str]) -> bytearray:
        """The chunks for ``digests`` back to back, in a fresh buffer the
        caller owns, or :class:`ChunkNotFoundError` for the first one
        missing.

        Runs once per blob read back: one ``_read`` per chunk and one
        join, the chunks' bytes copied once, and one accounting step
        equal to :meth:`get` per chunk — the reads before a miss are
        booked, the miss is not."""
        read = self._read
        chunks = []
        start = perf_counter()
        try:
            for digest in digests:
                chunks.append(read(digest))
        finally:
            if chunks:
                self.stats.record_reads(
                    len(chunks), sum(map(len, chunks)), perf_counter() - start
                )
        return bytearray().join(chunks)

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

    def import_chunk(self, digest: str, data: bytes | memoryview) -> bool:
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
        return self.adopt(digest, data)

    def adopt(self, digest: str, data: bytes | memoryview) -> bool:
        """The step of :meth:`import_chunk` after its hash check, booked
        the same way, for a caller that already knows ``data`` hashes to
        ``digest``: the hub's shared backend, whose every write comes
        from a view that verified or derived the digest itself. ``data``
        goes to ``_write`` as it came — a view into a request stays a
        view unless the store keeps bytes in memory."""
        start = perf_counter()
        try:
            if self._contains(digest):
                return False
            self._write(digest, data)
            self.stats.record_physical(len(data))
            self.revision += 1
        finally:
            self.stats.write_seconds += perf_counter() - start
        return True

    def flush(self) -> None:
        """Put the chunks stored so far on disk. Whoever commits something
        that names chunks — a repository header — calls this first, so a
        committed name never outlives its bytes across a power loss."""

    def compact(self) -> None:
        """Give back the space of discarded chunks. Callers whose own
        commit point names chunks run it only after that commit point
        has stopped naming the discarded ones."""

    def __len__(self) -> int:
        return len(self.digests())


class MemoryChunkStore(ChunkStore):
    """Dict-backed store; the default for tests and experiments."""

    def __init__(self) -> None:
        super().__init__()
        self._chunks: dict[str, bytes] = {}

    def _contains(self, digest: str) -> bool:
        return digest in self._chunks

    def _write(self, digest: str, data: bytes | memoryview) -> None:
        # The one copy of the write path: a content address never aliases
        # memory the caller can still change, and a stored view would pin
        # its whole parent buffer. bytes(bytes) is the object itself.
        self._chunks[digest] = bytes(data)

    def _read(self, digest: str) -> bytes:
        try:
            return self._chunks[digest]
        except KeyError:
            raise ChunkNotFoundError(digest) from None

    def _delete(self, digest: str) -> None:
        del self._chunks[digest]

    def digests(self) -> list[str]:
        return list(self._chunks)


#: One index row: SHA-256, offset in the segment, length.
_INDEX_ROW = struct.Struct(">32sQI")
#: The table keeps a row as one int, ``offset << 32 | length``: a third
#: of the memory of a tuple of two, and the table is the store's RSS.
_LENGTH_BITS = 32
_LENGTH_MASK = (1 << _LENGTH_BITS) - 1
_SEGMENT_NAME = re.compile(r"segment\.(\d+)")
_INDEX_NAME = re.compile(r"index\.(\d+)(\.tmp)?")
_APPEND_FLAGS = os.O_APPEND | os.O_CREAT
_COPY_BYTES = 1 << 20  # a compaction copies live runs in pieces of this size


def _names_in(directory: str) -> list[str]:
    try:
        return os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError):
        return []


def _write_all(fd: int, data: bytes) -> None:
    written = os.write(fd, data)
    while written < len(data):  # short write: keep going
        written += os.write(fd, data[written:])


class _Generation:
    """The open files and the table of one segment generation.

    A reader takes the store's current generation once and keeps it for
    the span of its read, so a compaction that replaces it meanwhile can
    neither hand the reader another segment's offsets nor close the
    descriptor under it: the files close when the last holder lets go."""

    __slots__ = ("number", "entries", "read_fd", "append_fd", "index_fd")

    def __init__(self, number: int | None):
        self.number = number  # None: nothing is published under the root
        self.entries: dict[str, int] = {}  # digest -> offset << 32 | length
        self.read_fd = self.append_fd = self.index_fd = None

    def __del__(self, close=os.close):
        for fd in (self.read_fd, self.append_fd, self.index_fd):
            if fd is not None:
                try:
                    close(fd)
                except OSError:
                    pass


class FileChunkStore(ChunkStore):
    """Filesystem-backed store: chunk bytes in one append-only segment.

    Layout (``g`` is the generation, which only a compaction moves)::

        <root>/segment.<g>        the chunks' bytes back to back, nothing else
        <root>.index/index.<g>    one 44-byte row per chunk: digest, offset,
                                  length, in the order the chunks arrived

    The index is read into a dict when the store is opened, so membership
    and :meth:`digests` never touch the disk; a write is one append to the
    segment and one row appended to the index under the store's lock, a
    read one lock-free ``pread`` of exactly the indexed length on a
    descriptor opened once. Opening writes nothing — no file, no
    directory, no repair: whatever a writer that died mid-append left (a
    torn row, rows naming bytes the segment lacks, segment bytes no row
    names) is skipped on load and cut off by the first append. Chunk
    bytes commit before whatever names them: :meth:`flush` puts segment,
    then index, on disk, and callers flush before they write their own
    commit point.

    A discard only forgets the chunk, in this handle: the bytes stay
    until :meth:`compact`, which callers run after *their* commit point
    has stopped naming them, copies the chunks still held into generation
    ``g+1``, publishes it by renaming its index into place, and removes
    generation ``g``. A store reopened before that compaction holds the
    discarded chunks again, unreferenced.

    Several handles on one root: appends use ``O_APPEND`` and take the
    chunk's offset from where the write landed, so a row never names
    another handle's bytes, and a handle that finds bytes it did not
    write below its own reads the rows it is missing first. A compaction
    beside another handle that keeps appending is not supported.

    A root in the older layout (``<root>/ab/cdef...``, one file per
    chunk) is refused with a :class:`StorageError`, never read as empty.
    """

    def __init__(self, root: str | os.PathLike[str]):
        super().__init__()
        self.root = os.fspath(root)
        self._index_root = self.root + ".index"
        self._lock = threading.Lock()
        self._gen = self._load()

    def _segment_path(self, number: int) -> str:
        return os.path.join(self.root, f"segment.{number}")

    def _index_path(self, number: int) -> str:
        return os.path.join(self._index_root, f"index.{number}")

    # ----------------------------------------------------------------- open
    def _published(self) -> int | None:
        """The generation whose index is in place (the highest, should a
        compaction have died between its rename and its removals)."""
        return max(
            (
                int(match[1])
                for match in map(_INDEX_NAME.fullmatch, _names_in(self._index_root))
                if match and not match[2]
            ),
            default=None,
        )

    def _load(self) -> _Generation:
        """The published generation, read without writing anything."""
        gen = _Generation(self._published())
        #: End of the segment as far as rows name it, length of the index
        #: as far as it was applied, bytes of the chunks now held.
        self._end = self._index_len = self._live_bytes = 0
        for name in _names_in(self.root):
            if os.path.isdir(os.path.join(self.root, name)):
                raise StorageError(
                    f"{self.root} holds the directory {name!r}: the "
                    "one-file-per-chunk layout, which is not read"
                )
        if gen.number is not None:
            with open(self._index_path(gen.number), "rb") as fh:
                rows = fh.read()
            try:
                gen.read_fd = os.open(self._segment_path(gen.number), os.O_RDONLY)
            except FileNotFoundError:
                return gen  # every row names bytes that are gone
            size = os.fstat(gen.read_fd).st_size
            self._index_len = self._apply_rows(gen, rows, size)
        return gen

    def _apply_rows(self, gen: _Generation, rows: bytes, segment_size: int) -> int:
        """Book the whole rows at the head of ``rows`` up to the first
        that names bytes past ``segment_size``; returns their length."""
        applied = 0
        usable = len(rows) - len(rows) % _INDEX_ROW.size
        for raw, offset, size in _INDEX_ROW.iter_unpack(memoryview(rows)[:usable]):
            if offset + size > segment_size:
                break
            # Interned: a hub's refcounts and tenant views key on the
            # same digests, so the table shares their strings.
            self._book(gen, sys.intern(raw.hex()), offset, size)
            applied += _INDEX_ROW.size
        return applied

    def _book(self, gen: _Generation, digest: str, offset: int, size: int) -> None:
        """Enter one row into the table and the byte counts."""
        superseded = gen.entries.get(digest)
        if superseded is not None:  # an earlier copy: dead bytes now
            self._live_bytes -= superseded & _LENGTH_MASK
        gen.entries[digest] = offset << _LENGTH_BITS | size
        self._live_bytes += size
        if offset + size > self._end:
            self._end = offset + size

    def _strays(self, number: int | None):
        """Paths this layout owns that generation ``number`` does not
        name: other generations' files, temp leftovers."""
        for name in _names_in(self._index_root):
            match = _INDEX_NAME.fullmatch(name)
            if match and (match[2] or int(match[1]) != number):
                yield os.path.join(self._index_root, name)
        for name in _names_in(self.root):
            match = _SEGMENT_NAME.fullmatch(name)
            if match and int(match[1]) != number:
                yield os.path.join(self.root, name)

    def _open_for_append(self) -> _Generation:
        """Open (creating, for a new store) the files appends go to and
        cut off whatever lies past the last usable row. A failure leaves
        a generation the caller must drop."""
        gen = self._gen
        if self._published() != gen.number:
            gen = self._gen = self._load()  # compacted since this handle loaded
        number = gen.number if gen.number is not None else 0
        os.makedirs(self.root, exist_ok=True)
        os.makedirs(self._index_root, exist_ok=True)
        # The index first: a segment no index names is a dead
        # compaction's to any handle that opens meanwhile.
        gen.index_fd = os.open(
            self._index_path(number), os.O_RDWR | _APPEND_FLAGS, 0o666
        )
        segment = self._segment_path(number)
        gen.append_fd = os.open(segment, os.O_WRONLY | _APPEND_FLAGS, 0o666)
        if gen.read_fd is None:
            gen.read_fd = os.open(segment, os.O_RDONLY)
        if gen.number is None:
            gen.number = number
            _fsync_directory(self.root)
            _fsync_directory(self._index_root)
        self._catch_up(gen)
        if os.fstat(gen.index_fd).st_size != self._index_len:
            os.ftruncate(gen.index_fd, self._index_len)
        if os.fstat(gen.append_fd).st_size != self._end:
            os.ftruncate(gen.append_fd, self._end)
        return gen

    def _catch_up(self, gen: _Generation) -> None:
        """Apply the index rows past the ones this handle has seen:
        another handle's appends."""
        size = os.fstat(gen.append_fd).st_size
        rows = b""
        while True:
            more = os.pread(gen.index_fd, _COPY_BYTES, self._index_len + len(rows))
            if not more:
                break
            rows += more
        self._index_len += self._apply_rows(gen, rows, size)

    # ----------------------------------------------------- per-chunk hooks
    def _contains(self, digest: str) -> bool:
        return digest in self._gen.entries

    # The lock orders appenders of one file and nothing else — readers
    # take none — so the file I/O under it is its whole critical section.
    def _write(self, digest: str, data: bytes | memoryview) -> None:
        # Two writes and an lseek per chunk, of ``data`` as it came (a
        # view is written, never copied). No temp name, no rename, no
        # directory: the row is what publishes the chunk, and a chunk
        # whose row never lands is cut off by the next writer.
        size = len(data)
        if size > _LENGTH_MASK:
            raise StorageError(f"a {size}-byte chunk does not fit an index row")
        with self._lock:
            gen = self._gen
            try:
                if gen.append_fd is None:
                    gen = self._open_for_append()
                if digest in gen.entries:
                    return  # another writer of the same content got here first
                _write_all(gen.append_fd, data)
                end = os.lseek(gen.append_fd, 0, os.SEEK_CUR)
                if end - size != self._end:
                    # another handle appended below us: its rows first
                    self._catch_up(gen)
                _write_all(
                    gen.index_fd,
                    _INDEX_ROW.pack(bytes.fromhex(digest), end - size, size),
                )
            except BaseException:
                # Half a chunk or half a row may be on disk now. Start
                # over from what the files hold; the next append cuts
                # the torn tail off before it writes.
                self._gen = self._load()
                raise
            self._index_len += _INDEX_ROW.size
            self._book(gen, digest, end - size, size)

    def _read(self, digest: str) -> bytes:
        # One pread of exactly the indexed length on a descriptor opened
        # once, and no lock: no buffered file object (it adds an ioctl,
        # two lseeks, an fstat and a read-to-EOF, each a GIL hand-off)
        # and no fixed oversized buffer (a 1 MiB request per 5 KB chunk
        # is an mmap per call and shows up as hub RSS).
        gen = self._gen
        entry = gen.entries.get(digest)
        if entry is None:
            raise ChunkNotFoundError(digest)
        offset, size = entry >> _LENGTH_BITS, entry & _LENGTH_MASK
        data = os.pread(gen.read_fd, size, offset)
        while len(data) < size:  # short read: keep going to the length
            more = os.pread(gen.read_fd, size - len(data), offset + len(data))
            if not more:
                # the segment was cut short behind the store
                raise ChunkIntegrityError(digest)
            data += more
        return data

    def join(self, digests: Iterable[str]) -> bytearray:
        # The buffer is sized from the index and each chunk is read
        # straight into its slice, so a blob costs one blob, not the
        # chunks plus their join. Books as the base does; a digest the
        # index lacks takes the base path, whose books a miss keeps.
        gen = self._gen
        digests = list(digests)
        try:
            entries = [gen.entries[digest] for digest in digests]
        except KeyError:
            return super().join(digests)
        blob = bytearray(sum(entry & _LENGTH_MASK for entry in entries))
        start = perf_counter()
        position = done = booked = 0
        try:
            with memoryview(blob) as view:
                for digest, entry in zip(digests, entries):
                    offset, end = entry >> _LENGTH_BITS, position + (entry & _LENGTH_MASK)
                    while position < end:  # short read: keep going to the length
                        got = os.preadv(gen.read_fd, [view[position:end]], offset)
                        if not got:
                            # the segment was cut short behind the store
                            raise ChunkIntegrityError(digest)
                        position += got
                        offset += got
                    done, booked = done + 1, end
        finally:
            if done:
                self.stats.record_reads(done, booked, perf_counter() - start)
        return blob

    def _size(self, digest: str) -> int:
        entry = self._gen.entries.get(digest)
        if entry is None:
            raise ChunkNotFoundError(digest)
        return entry & _LENGTH_MASK

    def _delete(self, digest: str) -> None:
        with self._lock:
            entry = self._gen.entries.pop(digest, None)
            if entry is not None:
                self._live_bytes -= entry & _LENGTH_MASK

    def digests(self) -> list[str]:
        return list(self._gen.entries)

    # ------------------------------------------------- commit and reclaim
    def flush(self) -> None:
        gen = self._gen
        if gen.append_fd is not None:
            os.fdatasync(gen.append_fd)
            os.fdatasync(gen.index_fd)

    def compact(self) -> None:
        # As for _write: the rewrite is the lock's critical section.
        with self._lock:
            if self._end != self._live_bytes:
                self._rewrite(self._gen)
            # The generation just replaced, or what a compaction that
            # died around its rename left; nothing, most of the time.
            for path in list(self._strays(self._gen.number)):
                with contextlib.suppress(OSError):
                    os.unlink(path)

    def _rewrite(self, old: _Generation) -> None:
        """Copy the chunks held into the next generation and publish it."""
        new = _Generation(0 if old.number is None else old.number + 1)
        os.makedirs(self.root, exist_ok=True)
        os.makedirs(self._index_root, exist_ok=True)
        segment = self._segment_path(new.number)
        new.append_fd = os.open(
            segment, os.O_WRONLY | os.O_TRUNC | _APPEND_FLAGS, 0o666
        )
        # Held chunks in segment order; neighbours are copied as one run.
        position, runs = 0, []
        for digest, entry in sorted(old.entries.items(), key=lambda item: item[1]):
            offset, size = entry >> _LENGTH_BITS, entry & _LENGTH_MASK
            new.entries[digest] = position << _LENGTH_BITS | size
            position += size
            if runs and runs[-1][1] == offset:
                runs[-1][1] += size
            else:
                runs.append([offset, offset + size])
        for start, end in runs:
            while start < end:
                piece = os.pread(old.read_fd, min(end - start, _COPY_BYTES), start)
                if not piece:
                    raise StorageError(
                        f"{self._segment_path(old.number)} ends at byte {start}; "
                        f"its index names bytes up to {end}"
                    )
                _write_all(new.append_fd, piece)
                start += len(piece)
        os.fdatasync(new.append_fd)
        _fsync_directory(self.root)

        rows = b"".join(
            _INDEX_ROW.pack(
                bytes.fromhex(digest), entry >> _LENGTH_BITS, entry & _LENGTH_MASK
            )
            for digest, entry in new.entries.items()
        )
        index = self._index_path(new.number)
        new.index_fd = os.open(
            index + ".tmp", os.O_RDWR | os.O_TRUNC | _APPEND_FLAGS, 0o666
        )
        _write_all(new.index_fd, rows)
        os.fdatasync(new.index_fd)
        new.read_fd = os.open(segment, os.O_RDONLY)
        os.replace(index + ".tmp", index)  # the commit point
        self._gen = new
        self._end = self._live_bytes = position
        self._index_len = len(rows)
        _fsync_directory(self._index_root)
