"""The per-chunk read path of a chunk store: counted, not timed.

``ChunkStore.get`` runs once per chunk served, so what it does per call
is held here as counts — which system calls a file-backed read makes,
what a scripted sequence of hits and misses leaves in the books — and as
the one behaviour the read-is-the-membership-test rule rests on: a chunk
whose file is gone is a typed miss on every backend.
"""

import os

import pytest

from repro.errors import ChunkIntegrityError, ChunkNotFoundError
from repro.obs.metrics import MetricsRegistry
from repro.storage import FileChunkStore, MemoryChunkStore
from repro.storage.hashing import sha256_hex

def make_store(kind, tmp_path):
    return MemoryChunkStore() if kind == "memory" else FileChunkStore(tmp_path / "c")


class TestFileReadSyscalls:
    def test_a_read_is_open_fstat_read_close(self, tmp_path, syscalls):
        store = FileChunkStore(tmp_path / "c")
        digest = store.put(b"x" * 5000)
        del syscalls[:]
        assert store.get(digest) == b"x" * 5000
        assert syscalls == ["open", "fstat", "read", "close"]

    def test_a_miss_is_one_failed_open(self, tmp_path, syscalls):
        store = FileChunkStore(tmp_path / "c")
        del syscalls[:]
        with pytest.raises(ChunkNotFoundError):
            store.get("0" * 64)
        assert syscalls == ["open"]

    def test_a_short_read_is_continued_to_the_files_size(
        self, tmp_path, monkeypatch
    ):
        store = FileChunkStore(tmp_path / "c")
        payload = bytes(range(256)) * 20
        digest = store.put(payload)
        real_read = os.read
        asked: list[int] = []

        def at_most_1999_bytes(fd, n):
            asked.append(n)
            return real_read(fd, min(n, 1999))

        monkeypatch.setattr(os, "read", at_most_1999_bytes)
        assert store.get(digest) == payload
        # Never more than what is left of the file: no oversized buffer.
        assert asked == [5120, 3121, 1122]

    def test_an_empty_chunk_reads_back_empty(self, tmp_path):
        store = FileChunkStore(tmp_path / "c")
        assert store.get(store.put(b"")) == b""


@pytest.mark.parametrize("kind", ["memory", "file"])
class TestReadIsTheMembershipTest:
    def test_absent_digest_is_a_typed_miss(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        with pytest.raises(ChunkNotFoundError) as raised:
            store.get("ab" + "0" * 62)
        assert raised.value.digest == "ab" + "0" * 62

    def test_discarded_chunk_is_a_typed_miss(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        digest = store.put(b"gone soon")
        assert store.discard(digest) == 9
        with pytest.raises(ChunkNotFoundError):
            store.get(digest)


def test_chunk_file_removed_behind_the_store_is_a_typed_miss(tmp_path):
    """A sweep, an operator or a lost disk block between any check and
    the open used to escape as a raw ``FileNotFoundError``."""
    store = FileChunkStore(tmp_path / "c")
    digest = store.put(b"here, then not")
    os.unlink(store._path(digest))
    with pytest.raises(ChunkNotFoundError) as raised:
        store.get(digest)
    assert raised.value.digest == digest


@pytest.mark.parametrize("kind", ["memory", "file"])
class TestBooksAreExact:
    def test_hits_count_and_misses_leave_no_trace(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        registry = MetricsRegistry()
        store.stats.bind_registry(registry, tenant="t", repo="r")
        payloads = [bytes([i]) * (100 + i) for i in range(7)]
        digests = [store.put(p) for p in payloads]

        seconds = [store.stats.read_seconds]
        for digest, payload in zip(digests, payloads):
            assert store.get(digest) == payload
            seconds.append(store.stats.read_seconds)
        assert seconds == sorted(seconds) and seconds[-1] > seconds[0]

        for absent in ("0" * 64, "f" * 64, "0" * 64):
            with pytest.raises(ChunkNotFoundError):
                store.get(absent)

        stats = store.stats
        assert stats.reads == 7
        assert stats.read_bytes == sum(map(len, payloads))
        assert stats.read_seconds == seconds[-1]  # misses added no time
        assert registry.value(
            "repro_chunk_read_bytes_total", tenant="t", repo="r"
        ) == stats.read_bytes

    def test_writes_count_logical_physical_and_dedup_as_before(
        self, kind, tmp_path
    ):
        store = make_store(kind, tmp_path)
        registry = MetricsRegistry()
        store.stats.bind_registry(registry, tenant="t", repo="r")

        store.put(b"a" * 10)
        store.put(b"a" * 10)  # dedup hit
        store.put(b"b" * 4)
        received = b"c" * 6
        assert store.import_chunk(sha256_hex(received), received) is True
        assert store.import_chunk(sha256_hex(received), received) is False
        with pytest.raises(ChunkIntegrityError):
            store.import_chunk("0" * 64, b"not that")

        stats = store.stats
        assert (stats.logical_bytes, stats.writes) == (24, 3)
        assert stats.physical_bytes == 20  # 10 + 4 authored, 6 replicated
        assert stats.dedup_hit_bytes == 10
        assert stats.write_seconds > 0.0
        assert store.revision == 3
        assert (stats.reads, stats.read_bytes, stats.read_seconds) == (0, 0, 0.0)
        series = {
            name: registry.value(
                f"repro_chunk_{name}_bytes_total", tenant="t", repo="r"
            )
            for name in ("logical", "written", "dedup_hit", "read")
        }
        assert series == {"logical": 24, "written": 20, "dedup_hit": 10, "read": 0}

    def test_a_failed_write_still_counts_its_time(
        self, kind, tmp_path, monkeypatch
    ):
        store = make_store(kind, tmp_path)

        def refuse(digest, data):
            raise OSError("disk full")

        monkeypatch.setattr(store, "_write", refuse)
        with pytest.raises(OSError):
            store.put(b"never lands")
        with pytest.raises(OSError):
            store.import_chunk(sha256_hex(b"nor this"), b"nor this")
        assert store.stats.write_seconds > 0.0
        assert store.stats.physical_bytes == 0 and store.revision == 0
