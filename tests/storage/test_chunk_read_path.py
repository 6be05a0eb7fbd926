"""The per-chunk paths of a chunk store: counted, not timed.

``ChunkStore.get`` runs once per chunk served and ``_write`` once per
chunk stored, so what they do per call is held here as counts — which
system calls a file-backed read, miss, membership test, novel write and
dedup hit make, what a scripted sequence of hits and misses leaves in
the books — and as the one behaviour the read-is-the-membership-test
rule rests on: a chunk whose bytes are gone is a typed error on every
backend, never a raw ``OSError``.
"""

import os

import pytest

from repro.errors import ChunkIntegrityError, ChunkNotFoundError
from repro.obs.metrics import MetricsRegistry
from repro.storage import FileChunkStore, MemoryChunkStore
from repro.storage.hashing import sha256_hex

def make_store(kind, tmp_path):
    return MemoryChunkStore() if kind == "memory" else FileChunkStore(tmp_path / "c")


def test_a_memory_store_makes_no_system_call(syscalls):
    store = MemoryChunkStore()
    digest = store.put(b"z" * 5000)
    assert store.put(b"z" * 5000) == digest and store.get(digest) == b"z" * 5000
    with pytest.raises(ChunkNotFoundError):
        store.get("0" * 64)
    assert syscalls == []


class TestFileReadSyscalls:
    def test_a_read_is_one_pread(self, tmp_path, syscalls):
        store = FileChunkStore(tmp_path / "c")
        digest = store.put(b"x" * 5000)
        del syscalls[:]
        assert store.get(digest) == b"x" * 5000
        assert syscalls == ["pread"]

    def test_a_join_is_one_preadv_per_chunk(self, tmp_path, syscalls):
        store = FileChunkStore(tmp_path / "c")
        pieces = [bytes([i]) * (100 + i) for i in range(3)]
        digests = [store.put(piece) for piece in pieces]
        del syscalls[:]
        assert store.join(digests[::-1]) == b"".join(pieces[::-1])
        assert syscalls == ["preadv"] * 3

    def test_a_join_keeps_reading_a_short_read_to_the_length(self, tmp_path, monkeypatch):
        store = FileChunkStore(tmp_path / "c")
        pieces = [b"x" * 10, b"y" * 7]
        digests = [store.put(piece) for piece in pieces]
        preadv = os.preadv
        monkeypatch.setattr(
            os, "preadv", lambda fd, buffers, offset: preadv(fd, [buffers[0][:3]], offset)
        )
        assert store.join(digests) == b"".join(pieces)
        assert (store.stats.reads, store.stats.read_bytes) == (2, 17)

    def test_a_miss_and_a_membership_test_touch_no_file(self, tmp_path, syscalls):
        store = FileChunkStore(tmp_path / "c")
        held = store.put(b"held")
        del syscalls[:]
        with pytest.raises(ChunkNotFoundError):
            store.get("0" * 64)
        assert store.contains(held) and not store.contains("0" * 64)
        assert store.missing([held, "0" * 64]) == ["0" * 64]
        assert store.digests() == [held] and len(store) == 1
        assert syscalls == []

    def test_a_novel_write_is_two_appends_and_a_dedup_hit_one_pread(
        self, tmp_path, syscalls
    ):
        store = FileChunkStore(tmp_path / "c")
        store.put(b"the first write opens the files")
        del syscalls[:]
        digest = store.put(b"y" * 5000)
        # the chunk, where it landed, its index row: no name is created,
        # renamed or looked up for a chunk
        assert syscalls == ["write", "lseek", "write"]
        del syscalls[:]
        assert store.put(b"y" * 5000) == digest
        # put_many's index confirms the held chunk's bytes: one read
        assert syscalls == ["pread"]
        del syscalls[:]
        assert store.import_chunk(digest, b"y" * 5000) is False
        assert syscalls == []

    def test_a_short_read_is_continued_to_the_files_size(
        self, tmp_path, monkeypatch
    ):
        store = FileChunkStore(tmp_path / "c")
        store.put(b"something before it")
        payload = bytes(range(256)) * 20
        digest = store.put(payload)
        real_pread = os.pread
        asked: list[tuple[int, int]] = []

        def at_most_1999_bytes(fd, n, offset):
            asked.append((n, offset))
            return real_pread(fd, min(n, 1999), offset)

        monkeypatch.setattr(os, "pread", at_most_1999_bytes)
        assert store.get(digest) == payload
        # Never more than what is left of the chunk: no oversized buffer.
        assert asked == [(5120, 19), (3121, 19 + 1999), (1122, 19 + 3998)]

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
    the read must never escape as a raw ``OSError``: a segment cut short
    under an open store is a ``ChunkIntegrityError`` for the chunks it
    lost, one removed a ``ChunkNotFoundError`` from the next open on."""
    store = FileChunkStore(tmp_path / "c")
    kept = store.put(b"written first")
    lost = store.put(b"here, then not")
    segment = tmp_path / "c" / "segment.0"
    os.truncate(segment, len(b"written first") + 4)
    with pytest.raises(ChunkIntegrityError) as raised:
        store.get(lost)
    assert raised.value.digest == lost
    assert store.get(kept) == b"written first"
    # a store opened now drops the row that names the missing bytes
    reopened = FileChunkStore(tmp_path / "c")
    assert reopened.digests() == [kept]
    os.unlink(segment)
    for digest in (kept, lost):
        with pytest.raises(ChunkNotFoundError) as raised:
            FileChunkStore(tmp_path / "c").get(digest)
        assert raised.value.digest == digest


def test_a_join_over_a_segment_cut_short_is_a_typed_error_booked_to_the_cut(tmp_path):
    store = FileChunkStore(tmp_path / "c")
    kept = store.put(b"written first")
    lost = store.put(b"here, then not")
    os.truncate(tmp_path / "c" / "segment.0", len(b"written first") + 4)
    with pytest.raises(ChunkIntegrityError) as raised:
        store.join([kept, lost])
    assert raised.value.digest == lost
    assert (store.stats.reads, store.stats.read_bytes) == (1, len(b"written first"))


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
