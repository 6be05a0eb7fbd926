"""Chunk store, object store, folder store, and accounting tests."""

import os

import numpy as np
import pytest

from repro.errors import ChunkIntegrityError, ChunkNotFoundError, ObjectNotFoundError
from repro.hub import SharedChunkBackend, TenantChunkStore
from repro.storage import (
    FileChunkStore,
    FolderStore,
    MemoryChunkStore,
    ObjectStore,
    StorageStats,
)


def random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


class TestMemoryChunkStore:
    def test_put_get_roundtrip(self):
        store = MemoryChunkStore()
        digest = store.put(b"hello")
        assert store.get(digest) == b"hello"

    def test_missing_chunk_raises(self):
        with pytest.raises(ChunkNotFoundError):
            MemoryChunkStore().get("0" * 64)

    def test_duplicate_put_stores_once(self):
        store = MemoryChunkStore()
        d1 = store.put(b"same")
        d2 = store.put(b"same")
        assert d1 == d2
        assert len(store) == 1
        assert store.stats.logical_bytes == 8
        assert store.stats.physical_bytes == 4
        assert store.stats.dedup_hit_bytes == 4

    def test_contains(self):
        store = MemoryChunkStore()
        digest = store.put(b"x")
        assert store.contains(digest)
        assert not store.contains("f" * 64)

    def test_read_accounting(self):
        store = MemoryChunkStore()
        digest = store.put(b"abcd")
        store.get(digest)
        assert store.stats.read_bytes == 4
        assert store.stats.reads == 1


class TestFileChunkStore:
    def test_roundtrip_and_layout(self, tmp_path):
        store = FileChunkStore(tmp_path / "objects")
        digest = store.put(b"persistent data")
        assert store.get(digest) == b"persistent data"
        # the bytes and nothing else in the segment, one row beside it
        assert (tmp_path / "objects" / "segment.0").read_bytes() == b"persistent data"
        row = (tmp_path / "objects.index" / "index.0").read_bytes()
        assert row == bytes.fromhex(digest) + (0).to_bytes(8, "big") + (15).to_bytes(4, "big")

    def test_digests_enumeration(self, tmp_path):
        store = FileChunkStore(tmp_path)
        digests = {store.put(bytes([i]) * 10) for i in range(5)}
        assert set(store.digests()) == digests

    def test_survives_reopen(self, tmp_path):
        digest = FileChunkStore(tmp_path).put(b"durable")
        reopened = FileChunkStore(tmp_path)
        assert reopened.get(digest) == b"durable"

    def test_missing_raises(self, tmp_path):
        with pytest.raises(ChunkNotFoundError):
            FileChunkStore(tmp_path).get("a" * 64)

    def test_temp_leftovers_of_a_dead_writer_are_not_chunks(self, tmp_path):
        root = tmp_path / "c"
        store = FileChunkStore(root)
        digest = store.put(b"whole")
        # a chunk whose row never landed, half a row, and what a
        # compaction that died before its rename wrote
        with open(root / "segment.0", "ab") as fh:
            fh.write(b"half a chu")
        with open(tmp_path / "c.index" / "index.0", "ab") as fh:
            fh.write(b"\xee" * 30)
        (root / "segment.1").write_bytes(b"whol")
        (tmp_path / "c.index" / "index.1.tmp").write_bytes(b"\xff" * 44)
        assert store.digests() == [digest]
        reopened = FileChunkStore(root)
        assert reopened.digests() == [digest] and reopened.get(digest) == b"whole"
        # the next writer cuts the torn tails off before it appends
        other = reopened.put(b"next")
        assert (root / "segment.0").read_bytes() == b"wholenext"
        assert os.path.getsize(tmp_path / "c.index" / "index.0") == 2 * 44
        assert FileChunkStore(root).digests() == [digest, other]

    def test_failed_write_leaves_no_chunk_and_the_next_one_lands(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "c"
        store = FileChunkStore(root)
        real_write, writes = os.write, []

        def refuse_the_row(fd, data):
            writes.append(len(data))
            if len(writes) == 2:
                raise OSError("disk full")
            return real_write(fd, data)

        with monkeypatch.context() as patch:
            patch.setattr("repro.storage.chunk_store.os.write", refuse_the_row)
            with pytest.raises(OSError, match="disk full"):
                store.put(b"never lands")
        assert writes == [11, 44]
        assert store.digests() == [] and FileChunkStore(root).digests() == []
        digest = store.put(b"lands")
        assert (root / "segment.0").read_bytes() == b"lands"
        assert FileChunkStore(root).digests() == [digest]


STORES = {
    "memory": lambda tmp_path: MemoryChunkStore(),
    "file": lambda tmp_path: FileChunkStore(tmp_path / "objects"),
    "tenant": lambda tmp_path: TenantChunkStore(SharedChunkBackend()),
}


@pytest.mark.parametrize("kind", STORES)
def test_size_is_the_held_length_or_a_typed_miss(kind, tmp_path):
    # Windowing sizes each chunk before it reads any (iter_chunk_batches):
    # an unheld digest must answer as a read of it would.
    store = STORES[kind](tmp_path)
    digest = store.put(b"sized")
    assert store._size(digest) == 5
    with pytest.raises(ChunkNotFoundError) as raised:
        store._size("0" * 64)
    assert raised.value.digest == "0" * 64


class TestChunkReplication:
    """The have/want and verified-import primitives behind remote sync."""

    def test_missing_reports_unheld_digests_in_order(self):
        store = MemoryChunkStore()
        held = store.put(b"held")
        wanted = ["a" * 64, held, "b" * 64, "a" * 64]  # dup collapses
        assert store.missing(wanted) == ["a" * 64, "b" * 64]

    def test_import_chunk_roundtrip(self):
        src, dst = MemoryChunkStore(), MemoryChunkStore()
        digest = src.put(b"replicate me")
        assert dst.import_chunk(digest, src.get(digest)) is True
        assert dst.get(digest) == b"replicate me"
        assert dst.import_chunk(digest, src.get(digest)) is False  # idempotent

    def test_import_counts_physical_not_logical(self):
        store = MemoryChunkStore()
        from repro.storage.hashing import sha256_hex

        data = b"x" * 100
        store.import_chunk(sha256_hex(data), data)
        assert store.stats.physical_bytes == 100
        assert store.stats.logical_bytes == 0

    def test_corrupt_import_rejected_before_write(self):
        store = MemoryChunkStore()
        with pytest.raises(ChunkIntegrityError):
            store.import_chunk("c" * 64, b"not what the digest claims")
        assert len(store) == 0

    def test_discard_reclaims_physical_bytes(self):
        store = MemoryChunkStore()
        digest = store.put(b"x" * 50)
        keep = store.put(b"y" * 30)
        assert store.discard(digest) == 50
        assert not store.contains(digest)
        assert store.stats.physical_bytes == 30
        assert store.discard(digest) == 0  # absent -> no-op
        assert store.contains(keep)

    def test_file_store_discard_then_compact_leaves_no_byte(self, tmp_path):
        store = FileChunkStore(tmp_path / "objects")
        digest = store.put(b"lonely chunk")
        assert store.discard(digest) == 12
        assert store.digests() == []
        store.compact()
        assert store.digests() == []
        assert os.listdir(tmp_path / "objects") == ["segment.1"]
        assert os.path.getsize(tmp_path / "objects" / "segment.1") == 0
        assert FileChunkStore(tmp_path / "objects").digests() == []

    def test_file_store_import(self, tmp_path):
        src = MemoryChunkStore()
        digest = src.put(b"to disk")
        dst = FileChunkStore(tmp_path / "objects")
        assert dst.import_chunk(digest, src.get(digest)) is True
        assert dst.get(digest) == b"to disk"

    def test_object_store_recipe_exchange(self):
        src, dst = ObjectStore(), ObjectStore()
        data = random_bytes(80_000)
        blob = src.put(data)
        recipe = src.recipe(blob)
        dst.add_recipe(recipe)
        for digest in dst.chunks.missing(recipe.chunk_digests):
            dst.import_chunk(digest, src.chunks.get(digest))
        assert dst.get(blob) == data

    def test_reachable_chunks_skips_unknown_blobs(self):
        store = ObjectStore()
        blob = store.put(random_bytes(40_000))
        reachable = store.reachable_chunks([blob, "f" * 64])
        assert reachable == set(store.recipe(blob).chunk_digests)


class TestObjectStore:
    def test_roundtrip_large_blob(self):
        store = ObjectStore()
        data = random_bytes(150_000)
        digest = store.put(data)
        assert store.get(digest) == data

    def test_recipe_structure(self):
        store = ObjectStore()
        data = random_bytes(50_000)
        digest = store.put(data)
        recipe = store.recipe(digest)
        assert recipe.size == len(data)
        assert recipe.n_chunks >= 2
        assert recipe.blob_digest == digest

    def test_dedup_across_similar_blobs(self):
        store = ObjectStore()
        data = random_bytes(200_000)
        edited = data[:120_000] + b"PATCH" + data[120_005:]  # same length
        store.put(data)
        store.put(edited)
        stats = store.stats
        assert stats.physical_bytes < 0.65 * stats.logical_bytes

    def test_identical_put_counts_logical_only(self):
        store = ObjectStore()
        data = random_bytes(30_000)
        store.put(data)
        physical_before = store.stats.physical_bytes
        store.put(data)
        assert store.stats.physical_bytes == physical_before
        assert store.stats.logical_bytes == 2 * len(data)

    def test_missing_object(self):
        with pytest.raises(ObjectNotFoundError):
            ObjectStore().get("b" * 64)

    def test_contains_and_len(self):
        store = ObjectStore()
        assert len(store) == 0
        digest = store.put(b"payload" * 100)
        assert store.contains(digest)
        assert len(store) == 1


class TestFolderStore:
    def test_memory_roundtrip(self):
        store = FolderStore()
        store.archive("lib", "v1", b"code bytes")
        assert store.retrieve("lib", "v1") == b"code bytes"

    def test_no_dedup_full_copies(self):
        store = FolderStore()
        store.archive("lib", "v1", b"same" * 100)
        store.archive("lib", "v2", b"same" * 100)
        assert store.stats.physical_bytes == store.stats.logical_bytes == 800

    def test_disk_backed(self, tmp_path):
        store = FolderStore(tmp_path)
        store.archive("lib", "v1", b"on disk")
        assert store.retrieve("lib", "v1") == b"on disk"
        assert (tmp_path / "lib" / "v1" / "data.bin").exists()

    def test_versions_listing(self):
        store = FolderStore()
        store.archive("a", "v1", b"1")
        store.archive("a", "v2", b"2")
        store.archive("b", "v1", b"3")
        assert store.versions("a") == ["v1", "v2"]
        assert store.versions("missing") == []

    def test_missing_raises(self):
        with pytest.raises(ObjectNotFoundError):
            FolderStore().retrieve("nope", "v9")

    def test_contains(self, tmp_path):
        store = FolderStore(tmp_path)
        store.archive("x", "v1", b"data")
        assert store.contains("x", "v1")
        assert not store.contains("x", "v2")


class TestStorageStats:
    def test_dedup_ratio(self):
        stats = StorageStats(logical_bytes=100, physical_bytes=50)
        assert stats.dedup_ratio == 2.0

    def test_dedup_ratio_empty(self):
        assert StorageStats().dedup_ratio == 1.0

    def test_merged_with(self):
        a = StorageStats(logical_bytes=10, physical_bytes=5, writes=1)
        b = StorageStats(logical_bytes=20, physical_bytes=20, writes=2)
        merged = a.merged_with(b)
        assert merged.logical_bytes == 30
        assert merged.physical_bytes == 25
        assert merged.writes == 3

    def test_timers_accumulate(self):
        stats = StorageStats()
        with stats.timed_write():
            pass
        with stats.timed_read():
            pass
        assert stats.write_seconds >= 0.0
        assert stats.read_seconds >= 0.0
        assert stats.storage_seconds == stats.write_seconds + stats.read_seconds

    def test_snapshot_keys(self):
        snap = StorageStats().snapshot()
        assert {"logical_bytes", "physical_bytes", "writes", "reads"} <= set(snap)
