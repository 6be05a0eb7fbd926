"""The per-blob write path of a chunk store: counted, not timed.

``ObjectStore.put`` hands the chunker's zero-copy views to one batched
``ChunkStore.put_many`` — one clock window and one accounting step per
blob instead of one per chunk. Held here: that the batch leaves exactly
the books a loop of single puts would (the loop is kept below as the
reference), also when a ``_write`` raises part-way and through a hosted
repository's view; and that a content address never aliases memory the
caller can still change.
"""

from time import perf_counter

import numpy as np
import pytest

from repro.hub import SharedChunkBackend, TenantChunkStore
from repro.obs.metrics import MetricsRegistry
from repro.storage import FileChunkStore, MemoryChunkStore, ObjectStore
from repro.storage.hashing import sha256_hex

SERIES = ("logical", "written", "dedup_hit", "read")


def random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


def reference_put(store, data: bytes) -> str:
    """``ChunkStore.put`` as it stood when it ran once per chunk: the
    books ``put_many`` must reproduce, step for step."""
    digest = sha256_hex(data)
    stats = store.stats
    start = perf_counter()
    try:
        stats.record_logical(len(data))
        if not store._contains(digest):
            store._write(digest, data)
            stats.record_physical(len(data))
            store.revision += 1
        else:
            stats.record_dedup_hit(len(data))
    finally:
        stats.write_seconds += perf_counter() - start
    return digest


def make_store(kind, root):
    """A chunk store of ``kind`` bound to a registry of its own."""
    if kind == "memory":
        store = MemoryChunkStore()
    elif kind == "file":
        store = FileChunkStore(root / "c")
    elif kind == "view":
        store = TenantChunkStore(SharedChunkBackend())
    else:
        store = TenantChunkStore(SharedChunkBackend(FileChunkStore(root / "shared")))
    registry = MetricsRegistry()
    store.stats.bind_registry(registry, tenant="t", repo="r")
    return store, registry


def books(store, registry) -> dict:
    """Everything a put may move, minus the two clocks."""
    snapshot = store.stats.snapshot()
    del snapshot["write_seconds"], snapshot["read_seconds"]
    snapshot["revision"] = store.revision
    snapshot["digests"] = sorted(store.digests())
    for name in SERIES:
        snapshot[f"series.{name}"] = registry.value(
            f"repro_chunk_{name}_bytes_total", tenant="t", repo="r"
        )
    if isinstance(store, TenantChunkStore):
        backend = store.backend
        snapshot["held_bytes"] = store.held_bytes
        snapshot["holdings"] = store.holdings()
        snapshot["backend.physical_bytes"] = backend.physical_bytes
        snapshot["backend.refcounts"] = {d: backend.refcount(d) for d in store.digests()}
        snapshot["backend.store.physical"] = backend.store.stats.physical_bytes
        snapshot["backend.store.revision"] = backend.store.revision
    return snapshot


def fail_nth_write(store, n: int, monkeypatch):
    """Make the ``n``-th ``_write`` from now on raise; the others land."""
    real_write, calls = store._write, []

    def write(digest, data):
        calls.append(digest)
        if len(calls) == n:
            raise OSError("disk full")
        real_write(digest, data)

    monkeypatch.setattr(store, "_write", write)


def pieces_with_repeats() -> list[bytes]:
    """Nine pieces, six distinct: novel writes interleaved with dedup
    hits, an empty piece among them."""
    a, b, c, d, e = (bytes([i]) * (700 + 31 * i) for i in range(5))
    return [a, b, a, c, b"", d, c, e, a]


KINDS = ["memory", "file", "view", "file-view"]


@pytest.mark.parametrize("kind", KINDS)
class TestBatchBooksEqualTheLoops:
    def test_a_clean_batch(self, kind, tmp_path):
        batch, batch_registry = make_store(kind, tmp_path / "batch")
        loop, loop_registry = make_store(kind, tmp_path / "loop")
        pieces = pieces_with_repeats()

        # The batch takes what the chunker hands out: views of one blob.
        blob = b"".join(pieces)
        views, at = [], 0
        for piece in pieces:
            views.append(memoryview(blob)[at : at + len(piece)])
            at += len(piece)

        digests = batch.put_many(views)
        assert digests == [reference_put(loop, piece) for piece in pieces]
        assert digests == [sha256_hex(piece) for piece in pieces]
        assert books(batch, batch_registry) == books(loop, loop_registry)
        assert batch.stats.writes == 9 and batch.revision == 6
        assert batch.stats.write_seconds > 0.0
        for digest, piece in zip(digests, pieces):
            assert batch.get(digest) == piece

    def test_put_is_the_one_piece_batch(self, kind, tmp_path):
        single, single_registry = make_store(kind, tmp_path / "single")
        loop, loop_registry = make_store(kind, tmp_path / "loop")
        for piece in pieces_with_repeats():
            assert single.put(piece) == reference_put(loop, piece)
        assert books(single, single_registry) == books(loop, loop_registry)

    @pytest.mark.parametrize("nth", [1, 3, 6])
    def test_a_write_that_raises_books_what_landed_before_it(
        self, kind, nth, tmp_path, monkeypatch
    ):
        batch, batch_registry = make_store(kind, tmp_path / "batch")
        loop, loop_registry = make_store(kind, tmp_path / "loop")
        pieces = pieces_with_repeats()
        fail_nth_write(batch, nth, monkeypatch)
        fail_nth_write(loop, nth, monkeypatch)

        with pytest.raises(OSError, match="disk full"):
            batch.put_many(pieces)
        with pytest.raises(OSError, match="disk full"):
            for piece in pieces:
                reference_put(loop, piece)

        after = books(batch, batch_registry)
        assert after == books(loop, loop_registry)
        assert after["revision"] == nth - 1 == len(after["digests"])
        # The piece that failed was asked for, but is not stored.
        assert after["logical_bytes"] > after["physical_bytes"] + after["dedup_hit_bytes"]
        assert batch.stats.write_seconds > 0.0

        # The failure was transient: the same batch again converges on
        # the books of a loop that retried the same way.
        monkeypatch.undo()
        digests = batch.put_many(pieces)
        assert digests == [reference_put(loop, piece) for piece in pieces]
        assert books(batch, batch_registry) == books(loop, loop_registry)
        assert len(set(digests)) == len(batch.digests()) == 6

    def test_an_empty_batch_moves_no_counter(self, kind, tmp_path):
        store, registry = make_store(kind, tmp_path)
        before = books(store, registry)
        assert store.put_many([]) == []
        assert books(store, registry) == before


@pytest.mark.parametrize("kind", KINDS)
class TestObjectStorePutUnderFailure:
    def test_no_recipe_is_registered_and_a_retry_converges(self, kind, tmp_path, monkeypatch):
        chunks, registry = make_store(kind, tmp_path / "failing")
        store = ObjectStore(chunks)
        blob = random_bytes(120_000, seed=5)
        sizes = [len(piece) for piece in store.chunker.split(blob)]
        n_pieces = len(sizes)
        assert n_pieces > 8

        fail_nth_write(chunks, 5, monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            store.put(blob)
        assert len(store) == 0 and store.revision == 0
        assert not store.contains(sha256_hex(blob))
        assert chunks.revision == 4 == len(chunks.digests())
        assert chunks.stats.writes == 5  # four stored, the fifth asked for

        monkeypatch.undo()
        digest = store.put(blob)
        assert store.get(digest) == blob
        assert store.recipe(digest).n_chunks == n_pieces

        clean_chunks, _ = make_store(kind, tmp_path / "clean")
        clean = ObjectStore(clean_chunks)
        assert clean.put(blob) == digest
        assert clean.recipe(digest) == store.recipe(digest)
        assert sorted(chunks.digests()) == sorted(clean_chunks.digests())
        assert chunks.stats.physical_bytes == clean_chunks.stats.physical_bytes == len(blob)
        assert chunks.revision == clean_chunks.revision == n_pieces
        # What the failed attempt left sets the books apart: five pieces
        # were asked for twice, the four that landed were hits on the retry.
        assert chunks.stats.logical_bytes == len(blob) + sum(sizes[:5])
        assert chunks.stats.dedup_hit_bytes == sum(sizes[:4])
        if isinstance(chunks, TenantChunkStore):
            assert chunks.held_bytes == clean_chunks.held_bytes == len(blob)
            assert {chunks.backend.refcount(d) for d in chunks.digests()} == {1}


class TestAContentAddressNeverAliasesCallerMemory:
    def test_a_mutated_bytearray_does_not_reach_the_stored_chunk(self):
        store = MemoryChunkStore()
        buffer = bytearray(b"the bytes this digest names")
        digest = store.put(buffer)
        buffer[:3] = b"XXX"
        assert store.get(digest) == b"the bytes this digest names"
        assert sha256_hex(store.get(digest)) == digest

    def test_an_imported_view_is_copied_not_pinned(self):
        store = MemoryChunkStore()
        parent = bytearray(random_bytes(50_000))
        piece = memoryview(parent)[1000:6000]
        expected = bytes(piece)
        assert store.import_chunk(sha256_hex(expected), piece) is True
        parent[1000:1010] = bytes(10)
        held = store.get(sha256_hex(expected))
        assert type(held) is bytes and held == expected

    def test_bytes_are_stored_as_they_are(self):
        """The copy is for buffers that can change or pin a parent;
        ``bytes`` in is the same object out, as before."""
        store = MemoryChunkStore()
        data = random_bytes(5000)
        assert store.get(store.put(data)) is data

    @pytest.mark.parametrize("kind", ["memory", "view"])
    def test_object_store_put_leaves_no_view_in_the_store(self, kind, tmp_path):
        chunks, _ = make_store(kind, tmp_path)
        store = ObjectStore(chunks)
        blob = random_bytes(200_000, seed=3)
        store.put(blob)
        store.put(blob[:150_000] + random_bytes(50_000, seed=4))  # mostly dedup hits
        held = chunks.backend.store._chunks if kind == "view" else chunks._chunks
        assert len(held) > 20
        # A view would pin its whole parent blob for the life of the chunk.
        assert {type(chunk) for chunk in held.values()} == {bytes}

    def test_a_dedup_hit_is_not_copied(self, monkeypatch):
        """Nine tenths of a new version is already held: finding that out
        must cost a hash and a lookup, not a copy."""
        store = ObjectStore(MemoryChunkStore())
        blob = random_bytes(100_000, seed=8)
        store.put(blob)
        written = []
        real_write = store.chunks._write
        monkeypatch.setattr(
            store.chunks, "_write", lambda d, data: (written.append(d), real_write(d, data))
        )
        edited = blob[:50_000] + b"\x00" * 8 + blob[50_008:]
        store.put(edited)
        assert 1 <= len(written) <= 2  # the chunk(s) the edit touched
        assert all(type(store.chunks._chunks[d]) is bytes for d in written)


def test_one_write_path_no_backend_overrides_it():
    """The budget's layer table wraps ``ChunkStore.put``/``get``/
    ``import_chunk`` by dotted name; a backend changes what a write
    costs in its ``_write`` hook, never by a second ``put`` or a
    second ``adopt`` (the step the hub's backend writes through)."""
    from repro.storage.chunk_store import ChunkStore

    for backend in (MemoryChunkStore, FileChunkStore, TenantChunkStore):
        for name in ("put", "put_many", "import_chunk", "adopt", "get"):
            assert name not in vars(backend), f"{backend.__name__}.{name}"
            assert getattr(backend, name) is getattr(ChunkStore, name)
