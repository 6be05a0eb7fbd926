"""Chunk reads through a hosted repository's view: counted, not timed.

The hub's hottest loop is ``view.get`` -> ``backend.read`` ->
``store.get`` -> ``store._read``, once per chunk of every clone. Held
here: what one such read costs in system calls; that the view's and the
backing store's books agree with a scripted sequence; that chunk bytes
which vanished or changed length under a hosted repository are answered
with a typed error and no blob; that a memory-backed and a file-backed
hub put byte-identical frames on the wire; and that readers racing a
discarding, compacting thread see exact bytes or a typed miss, nothing
else.
"""

import os
import struct
import sys
import threading

import pytest

from repro.errors import ChunkIntegrityError, ChunkNotFoundError
from repro.hub import RepositoryHub, SharedChunkBackend, TenantChunkStore
from repro.obs.metrics import MetricsRegistry
from repro.remote.protocol import (
    decode_message,
    encode_message,
    raise_remote_error,
)
from repro.storage import FileChunkStore

from helpers import build_workload_repo

TENANT, REPO, TOKEN = "ana", "proj", "tok"


def file_backed_view(tmp_path):
    store = FileChunkStore(tmp_path / "chunks")
    return store, TenantChunkStore(SharedChunkBackend(store))


def hub_with_history(workload, root=None):
    """A hub (disk-backed under ``root``, else in memory) hosting one
    pushed workload history; returns it with the view's digests."""
    hub = RepositoryHub(root)
    hub.add_tenant(TENANT, tokens=[TOKEN])
    local = build_workload_repo(workload, commits=2)
    local.add_remote("hub", hub.local_transport(TENANT, REPO, TOKEN)).push(
        workload.name
    )
    hosted = hub._acquire(TENANT, REPO, create=False)
    try:
        return hub, hosted.view.digests()
    finally:
        hub._release(hosted)


def offset_of(store, digest) -> int:
    return store._gen.entries[digest] >> 32


def last_in_segment(store, digests) -> str:
    """The one of ``digests`` whose bytes end the store's segment."""
    return max(digests, key=lambda digest: offset_of(store, digest))


def get_chunks(hub, digests, max_bytes=None):
    meta = {"op": "get_chunks", "digests": list(digests)}
    if max_bytes is not None:
        meta["max_bytes"] = max_bytes
    return hub.handle_request(TENANT, REPO, TOKEN, encode_message(meta, []))


class TestOneReadThroughTheView:
    def test_one_pread_no_open_no_stat_no_buffered_open(
        self, tmp_path, syscalls
    ):
        store, view = file_backed_view(tmp_path)
        digest = view.put(b"y" * 5000)
        del syscalls[:]
        assert view.get(digest) == b"y" * 5000
        assert syscalls == ["pread"]

    def test_a_novel_write_through_the_view_is_two_appends(
        self, tmp_path, syscalls
    ):
        store, view = file_backed_view(tmp_path)
        view.put(b"the first write opens the files")
        del syscalls[:]
        digest = view.put(b"y" * 5000)
        assert syscalls == ["write", "lseek", "write"]
        del syscalls[:]
        assert view.put(b"y" * 5000) == digest  # the view's own dedup hit:
        assert syscalls == ["pread"]  # put_many's index confirms the bytes
        del syscalls[:]
        other = TenantChunkStore(view.backend)
        assert other.put(b"y" * 5000) == digest  # the backend's
        assert syscalls == []

    def test_unheld_digest_never_touches_the_backend(self, tmp_path, syscalls):
        """Membership is the view's own: another tenant's bytes under the
        same backend cost an outsider no I/O and answer like any miss."""
        store = FileChunkStore(tmp_path / "chunks")
        backend = SharedChunkBackend(store)
        owner, outsider = TenantChunkStore(backend), TenantChunkStore(backend)
        digest = owner.put(b"not yours")
        del syscalls[:]
        with pytest.raises(ChunkNotFoundError):
            outsider.get(digest)
        assert syscalls == []
        assert store.stats.reads == 0

    def test_a_memory_backed_view_makes_no_system_call(self, syscalls):
        view = TenantChunkStore(SharedChunkBackend())
        digest = view.put(b"z" * 5000)
        assert view.put(b"z" * 5000) == digest and view.get(digest) == b"z" * 5000
        with pytest.raises(ChunkNotFoundError):
            view.get("0" * 64)
        assert syscalls == []


class TestBooksAgree:
    def test_view_and_backing_store_count_the_same_hits(self, tmp_path):
        store, view = file_backed_view(tmp_path)
        registry = MetricsRegistry()
        view.stats.bind_registry(registry, tenant=TENANT, repo=REPO)
        payloads = [bytes([i]) * (200 + i) for i in range(9)]
        digests = [view.put(p) for p in payloads]
        view_seconds = view.stats.read_seconds

        for digest, payload in zip(digests, payloads):
            assert view.get(digest) == payload
        hit_seconds = view.stats.read_seconds
        assert hit_seconds > view_seconds
        for absent in ("0" * 64, "1" * 64):
            with pytest.raises(ChunkNotFoundError):
                view.get(absent)

        total = sum(map(len, payloads))
        for stats in (view.stats, store.stats):
            assert (stats.reads, stats.read_bytes) == (9, total)
        assert view.stats.read_seconds == hit_seconds  # misses added no time
        assert view.stats.read_seconds >= store.stats.read_seconds > 0.0
        assert registry.value(
            "repro_chunk_read_bytes_total", tenant=TENANT, repo=REPO
        ) == total
        # Write side, as before: the view speaks tenant-logical, the
        # store underneath counts what landed on disk.
        assert (view.stats.logical_bytes, view.stats.writes) == (total, 9)
        assert view.stats.physical_bytes == view.held_bytes == total
        assert store.stats.physical_bytes == total
        assert view.put(payloads[0]) == digests[0]
        assert view.stats.dedup_hit_bytes == len(payloads[0])


    def test_a_window_reads_only_the_chunks_it_ships(self, workload, tmp_path):
        hub, digests = hub_with_history(workload, tmp_path / "root")
        store = hub.backend.store
        window = sum(store._size(d) for d in digests[:7]) + 1
        before = store.stats.reads
        meta, blobs = decode_message(get_chunks(hub, digests, window))
        assert len(meta["digests"]) == len(blobs) == 7
        assert store.stats.reads - before == 7


class TestVanishedChunk:
    def test_view_answers_a_typed_miss(self, tmp_path):
        store, view = file_backed_view(tmp_path)
        digest = view.put(b"held, then lost")
        store.discard(digest)  # the store lets go behind the view's back
        with pytest.raises(ChunkNotFoundError) as raised:
            view.get(digest)
        assert raised.value.digest == digest
        assert view.contains(digest)  # still in the holdings: a lost block

    def test_hub_get_chunks_answers_the_typed_error(self, workload, tmp_path):
        """The end of the segment never reached the disk: the restarted
        hub's store drops the row that names it, the holdings still do."""
        hub, digests = hub_with_history(workload, tmp_path / "root")
        store = hub.backend.store
        victim = last_in_segment(store, digests)
        os.truncate(store._segment_path(0), offset_of(store, victim) + 1)
        hub = RepositoryHub(tmp_path / "root")
        digests = [victim] + [d for d in digests if d != victim][:5]
        digests[0], digests[3] = digests[3], digests[0]
        meta, blobs = decode_message(get_chunks(hub, digests))
        assert blobs == []
        assert meta == {
            "error": {
                "type": "ChunkNotFoundError",
                "message": f"chunk not found: {victim}",
            }
        }


class TestWrongLength:
    @pytest.mark.parametrize("damage", ["truncated", "grown"])
    def test_view_refuses_a_chunk_of_the_wrong_length(self, tmp_path, damage):
        store, view = file_backed_view(tmp_path)
        digest = view.put(b"z" * 4096)
        if damage == "truncated":
            # the segment is cut short under the open store
            os.truncate(store._segment_path(0), 1000)
        else:
            # the index comes to name four bytes more than the holdings
            # row does: a later row for the digest wins on the next open
            with open(store._segment_path(0), "ab") as fh:
                fh.write(b"tail")
            with open(store._index_path(0), "ab") as fh:
                fh.write(struct.pack(">32sQI", bytes.fromhex(digest), 0, 4100))
            store = FileChunkStore(tmp_path / "chunks")
            assert store.get(digest) == b"z" * 4096 + b"tail"
            view = TenantChunkStore(SharedChunkBackend(store), view.holdings())
        with pytest.raises(ChunkIntegrityError) as raised:
            view.get(digest)
        assert raised.value.digest == digest
        assert view.stats.reads == 0  # refused reads are not served bytes

    def test_hub_ships_no_blob_of_a_truncated_chunk(self, workload, tmp_path):
        hub, digests = hub_with_history(workload, tmp_path / "root")
        store = hub.backend.store
        victim = last_in_segment(store, digests)
        digests = [victim] + [d for d in digests if d != victim]
        os.truncate(
            store._segment_path(0),
            offset_of(store, victim) + store._size(victim) // 2,
        )
        meta, blobs = decode_message(get_chunks(hub, digests[:4]))
        assert blobs == []
        assert meta == {
            "error": {
                "type": "ChunkIntegrityError",
                "message": f"chunk integrity check failed for {victim}",
            }
        }
        # An untouched chunk still serves.
        meta, blobs = decode_message(get_chunks(hub, digests[1:2]))
        raise_remote_error(meta)
        assert meta["digests"] == digests[1:2] and len(blobs) == 1


class TestMemoryAndFileHubsAnswerAlike:
    def test_get_chunks_frames_are_byte_identical(self, workload, tmp_path):
        memory_hub, digests = hub_with_history(workload)
        file_hub, file_digests = hub_with_history(workload, tmp_path / "root")
        assert file_digests == digests
        assert isinstance(file_hub.backend.store, FileChunkStore)

        wanted = digests[::-1][:40]
        sizes = [memory_hub.backend.store._size(d) for d in wanted]
        window = sum(sizes[:7]) + 1  # seven fit, the eighth overflows
        for request in (
            (wanted, window),
            (wanted[7:], window),
            (wanted[:3], None),
            (wanted[:2] + ["0" * 64], None),  # typed miss, same bytes too
        ):
            assert get_chunks(memory_hub, *request) == get_chunks(
                file_hub, *request
            )

        meta, blobs = decode_message(get_chunks(file_hub, wanted, window))
        assert meta["digests"] == wanted[:7]  # a prefix of the request
        assert meta["remaining"] == len(wanted) - 7
        assert list(map(len, blobs)) == sizes[:7]


def test_readers_beside_a_discarder_see_exact_bytes_or_a_typed_miss(tmp_path):
    """Four readers walk the same 500 chunks while a fifth thread
    discards a disjoint 500 and compacts the store after every hundred
    (the kept chunks move to a new segment under the readers): more
    threads than cores, short switch interval, and every ``get`` is the
    chunk's bytes or ``ChunkNotFoundError`` for a digest that is really
    gone."""
    store, view = file_backed_view(tmp_path)
    kept = {view.put(b"keep-%d-" % i * 40): b"keep-%d-" % i * 40 for i in range(500)}
    doomed = [view.put(b"drop-%d-" % i * 40) for i in range(500)]
    gone: set[str] = set()
    wrong: list = []
    start = threading.Barrier(5)

    def reader(offset):
        start.wait(timeout=30)
        order = list(kept)[offset:] + list(kept)[:offset]
        for n, digest in enumerate(order):
            try:
                if view.get(digest) != kept[digest]:
                    wrong.append(("bytes", digest))
            except BaseException as error:  # noqa: BLE001 - recorded, asserted below
                wrong.append((type(error).__name__, digest))
            probe = doomed[(offset + n) % len(doomed)]
            try:
                view.get(probe)
            except ChunkNotFoundError as error:
                if error.digest != probe:
                    wrong.append(("digest", probe))
            except BaseException as error:  # noqa: BLE001
                wrong.append((type(error).__name__, probe))

    def discarder():
        start.wait(timeout=30)
        for n, digest in enumerate(doomed, 1):
            if view.discard(digest):
                gone.add(digest)
            if n % 100 == 0:
                view.backend.compact()

    threads = [threading.Thread(target=reader, args=(i * 125,)) for i in range(4)]
    threads.append(threading.Thread(target=discarder))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert gone == set(doomed)
    assert view.stats.reads >= 4 * len(kept)
    assert store.stats.reads == view.stats.reads
    assert view.digests() == list(kept)
    for digest in doomed:
        with pytest.raises(ChunkNotFoundError):
            view.get(digest)
    assert store._gen.number == 5 and os.listdir(store.root) == ["segment.5"]
    assert os.path.getsize(store._segment_path(5)) == sum(map(len, kept.values()))
