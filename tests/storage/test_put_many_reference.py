"""The indexed ``put_many`` against its frozen hash-every-piece reference.

``ChunkStore.put_many`` now reuses a digest it learned for a piece with
the same length and the same first and last 16 bytes, after comparing the
piece byte for byte with the chunk held under that digest, and hashes only
the pieces with no confirmed match. The reference in
``reference_put_many.py`` hashes every piece. On drawn histories of puts,
discards and writes that raise part-way, both must return the same digests
and leave the same stored bytes, the same ``StorageStats`` (all but the
clocks), ``revision`` and registry mirror — on memory, file and view
stores. The draws aim at what the index could get wrong: pieces that
share their key but differ in the middle, a key whose chunk was discarded
and is put again, duplicates within one blob, pieces shorter than the two
edges together.
"""

import random
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from helpers import oracle_settings
from storage.reference_put_many import reference_put_many
from storage.test_chunk_write_path import KINDS, books, make_store
from repro.storage import MemoryChunkStore, ObjectStore
from repro.storage import chunk_store as chunk_store_module
from repro.storage.chunk_store import ChunkStore
from repro.storage.hashing import sha256_hex

EDGE = 16  # bytes of each end a key holds


@st.composite
def piece_pools(draw) -> list[bytes]:
    """Distinct pieces; a long one may come with twins that keep its
    length and both edges and differ only in the middle."""
    pool: list[bytes] = []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.sampled_from([0, 1, 15, 16, 17, 31, 32, 33, 34, 64, 700]))
        base = draw(st.binary(min_size=size, max_size=size))
        pool.append(base)
        if size > 2 * EDGE:
            for _ in range(draw(st.integers(0, 2))):
                twin = bytearray(base)
                twin[draw(st.integers(EDGE, size - EDGE - 1))] ^= draw(st.integers(1, 255))
                pool.append(bytes(twin))
    return list(dict.fromkeys(pool))


@st.composite
def histories(draw):
    """A pool and the operations run against it: ``("put", picks,
    fail_at)`` puts the picked pieces as one blob, its ``fail_at``-th
    ``_write`` raising (``None``: none does); ``("discard", pick)``."""
    pool = draw(piece_pools())
    pick = st.integers(0, len(pool) - 1)
    put = st.tuples(
        st.just("put"), st.lists(pick, max_size=8), st.none() | st.integers(1, 3)
    )
    ops = draw(st.lists(put | st.tuples(st.just("discard"), pick), min_size=1, max_size=8))
    return pool, ops


def as_views(pieces: list[bytes]) -> list[memoryview]:
    """What the chunker hands out: zero-copy views of one blob."""
    blob = memoryview(b"".join(pieces))
    views, at = [], 0
    for piece in pieces:
        views.append(blob[at : at + len(piece)])
        at += len(piece)
    return views


def run(store, put, pool, op):
    """One operation on ``store``, through ``put`` for a put; returns
    what the caller sees."""
    if op[0] == "discard":
        return store.discard(sha256_hex(pool[op[1]]))
    _, picks, fail_at = op
    if fail_at is not None:
        real_write, calls = store._write, []

        def write(digest, data):
            calls.append(digest)
            if len(calls) == fail_at:
                raise OSError("disk full")
            real_write(digest, data)

        store._write = write
    try:
        return put(store, as_views([pool[i] for i in picks]))
    except OSError:
        return "disk full"
    finally:
        vars(store).pop("_write", None)


def held(store) -> dict[str, bytes]:
    """The stored bytes, read without moving the store's own books."""
    return {digest: store._read(digest) for digest in sorted(store.digests())}


def twin_after_base_history():
    """Every case the draw aims at, in one history."""
    base = bytes(range(40))
    twin = bytes(range(20)) + b"\xff" + bytes(range(21, 40))
    short = b"short"
    pool = [base, twin, short, b""]
    ops = [
        ("put", [0, 2, 0, 3], None),  # a duplicate within one blob
        ("put", [1, 2], None),  # the twin: same key, another middle
        ("discard", 1),
        ("put", [1, 0], None),  # the twin's chunk was discarded
        ("put", [2, 1, 0, 3], 1),  # a write that raises part-way
        ("put", [0, 1, 2, 3], None),
    ]
    return pool, ops


@pytest.mark.parametrize("kind", KINDS)
@oracle_settings(max_examples=40)
@given(history=histories())
@example(history=twin_after_base_history())
def test_indexed_put_many_matches_the_hash_every_piece_reference(kind, history):
    pool, ops = history
    with tempfile.TemporaryDirectory() as root:
        change, change_registry = make_store(kind, Path(root) / "change")
        reference, reference_registry = make_store(kind, Path(root) / "reference")
        for op in ops:
            seen = run(change, ChunkStore.put_many, pool, op)
            assert seen == run(reference, reference_put_many, pool, op), op
            assert books(change, change_registry) == books(reference, reference_registry), op
            assert held(change) == held(reference), op
        assert len(change._learned) <= len(pool)


class TestTheIndex:
    def test_a_new_version_hashes_only_what_changed(self, monkeypatch):
        """The point of the index: a held piece is found by a key lookup
        and a comparison, not by its SHA-256."""
        store = ObjectStore(MemoryChunkStore())
        blob = bytes(range(256)) * 400
        store.put(blob)
        hashed = []
        monkeypatch.setattr(
            chunk_store_module,
            "sha256_hex",
            lambda piece: hashed.append(len(piece)) or sha256_hex(piece),
        )
        edited = blob[:50_000] + b"\x00" * 8 + blob[50_008:]
        digest = store.put(edited)
        n_pieces = store.recipe(digest).n_chunks
        assert n_pieces > 10
        assert 1 <= len(hashed) <= 2  # the piece(s) the edit touched
        assert store.get(digest) == edited

    def test_the_confirming_read_moves_no_read_counter(self):
        store, registry = make_store("memory", None)
        piece = b"held already, " * 100
        store.put(piece)
        before = books(store, registry)
        store.put(piece)
        after = books(store, registry)
        assert after["reads"] == before["reads"] == 0
        assert after["read_bytes"] == after["series.read"] == 0
        assert after["dedup_hit_bytes"] == len(piece)

    def test_a_stale_entry_is_a_miss(self):
        """A discarded chunk leaves its entry behind; the next put of the
        key hashes again and overwrites it."""
        store = MemoryChunkStore()
        first = b"a" * 20 + b"first middle" + b"z" * 20
        second = b"a" * 20 + b"other middle" + b"z" * 20
        digest = store.put(first)
        assert store.discard(digest) == len(first)
        assert list(store._learned.values()) == [digest]
        assert store.put(second) == sha256_hex(second)
        assert list(store._learned.values()) == [sha256_hex(second)]
        assert store.put(first) == digest

    def test_only_put_many_builds_the_index(self):
        """Imports — a clone, a fetch, the hub's pushes — pay nothing
        for it and hold none."""
        store = MemoryChunkStore()
        for i in range(5):
            data = bytes([i]) * 300
            assert store.import_chunk(sha256_hex(data), data)
        assert store._learned == {}

    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_threads_sharing_one_index_never_get_a_wrong_digest(self, kind, tmp_path):
        """Entries are hints that racing writers overwrite freely; a
        digest is still handed out only for bytes equal to its chunk."""
        store, _ = make_store(kind, tmp_path)
        base = bytes(range(64)) * 4
        pool = [base] + [base[:100] + bytes([i]) + base[101:] for i in range(6)]
        results, errors = [], []

        def writer(seed):
            try:
                rng = random.Random(seed)
                for _ in range(150):
                    pieces = [rng.choice(pool) for _ in range(4)]
                    results.append((pieces, store.put_many(as_views(pieces))))
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not errors
        assert len(results) == 6 * 150
        for pieces, digests in results:
            assert digests == [sha256_hex(piece) for piece in pieces]
        assert sorted(store.digests()) == sorted(sha256_hex(piece) for piece in pool)
