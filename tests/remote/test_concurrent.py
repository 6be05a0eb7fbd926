"""Concurrency: reader-writer locking, the response cache, and a stress run.

The server's contract under concurrent traffic: reads run in parallel
(and hit the response cache when nothing changed), pushes serialize
behind the write lock, and a many-readers-plus-one-pusher storm drops no
request and converges on the correct refs.
"""

import threading

import pytest

from repro.remote import (
    HttpTransport,
    LocalTransport,
    RepositoryServer,
    clone_repository,
    encode_message,
    serve,
)
from repro.remote.protocol import decode_message
from repro.remote.server import RWLock


class TestRWLock:
    def test_readers_overlap(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # both readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        writer_in = threading.Event()
        release_writer = threading.Event()
        reader_done = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                release_writer.wait(timeout=5)

        def reader():
            with lock.read_locked():
                reader_done.set()

        w = threading.Thread(target=writer)
        w.start()
        assert writer_in.wait(timeout=5)
        r = threading.Thread(target=reader)
        r.start()
        assert not reader_done.wait(timeout=0.2)  # blocked behind the writer
        release_writer.set()
        assert reader_done.wait(timeout=5)
        w.join(timeout=5)
        r.join(timeout=5)

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: a queued writer gets in before later readers."""
        lock = RWLock()
        first_reader_in = threading.Event()
        release_first_reader = threading.Event()
        writer_done = threading.Event()
        late_reader_done = threading.Event()
        order = []

        def first_reader():
            with lock.read_locked():
                first_reader_in.set()
                release_first_reader.wait(timeout=5)

        def writer():
            with lock.write_locked():
                order.append("writer")
            writer_done.set()

        def late_reader():
            with lock.read_locked():
                order.append("late-reader")
            late_reader_done.set()

        r1 = threading.Thread(target=first_reader)
        r1.start()
        assert first_reader_in.wait(timeout=5)
        w = threading.Thread(target=writer)
        w.start()
        import time

        deadline = time.monotonic() + 5
        while lock._writers_waiting == 0:  # until the writer is queued
            assert time.monotonic() < deadline
            time.sleep(0.001)
        r2 = threading.Thread(target=late_reader)
        r2.start()
        assert not late_reader_done.wait(timeout=0.2)
        release_first_reader.set()
        assert writer_done.wait(timeout=5)
        assert late_reader_done.wait(timeout=5)
        assert order == ["writer", "late-reader"]
        for t in (r1, w, r2):
            t.join(timeout=5)


class TestResponseCache:
    def test_repeated_manifest_hits_cache(self, server_repo):
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        first = transport.call(encode_message({"op": "manifest"}))
        second = transport.call(encode_message({"op": "manifest"}))
        assert first == second
        assert server.cache.hits == 1

    def test_push_invalidates_cache(self, server_repo, workload):
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        clone = clone_repository(transport, registry=server_repo.registry)
        stale = decode_message(transport.call(encode_message({"op": "manifest"})))[0]
        commit, _ = clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="new"
        )
        clone.remote("origin").push(workload.name, "master")
        fresh = decode_message(transport.call(encode_message({"op": "manifest"})))[0]
        assert fresh["refs"][workload.name]["master"] == commit.commit_id
        assert stale["refs"][workload.name]["master"] != commit.commit_id

    def test_out_of_band_mutation_invalidates_cache(self, server_repo, workload):
        """A repo served live while its owner keeps committing must never
        serve yesterday's refs: entries are keyed to store revisions."""
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        transport.call(encode_message({"op": "manifest"}))
        commit, _ = server_repo.commit(
            workload.name, {"model": workload.model_version(2)}, message="direct"
        )
        meta, _ = decode_message(transport.call(encode_message({"op": "manifest"})))
        assert meta["refs"][workload.name]["master"] == commit.commit_id

    def test_cache_disabled_with_zero_entries(self, server_repo):
        server = RepositoryServer(server_repo, cache_entries=0)
        transport = LocalTransport(server)
        transport.call(encode_message({"op": "manifest"}))
        transport.call(encode_message({"op": "manifest"}))
        assert server.cache.hits == 0

    def test_negative_cache_entries_treated_as_disabled(self, server_repo):
        """-1 conventionally means 'unlimited'; it must not crash puts."""
        server = RepositoryServer(server_repo, cache_entries=-1)
        transport = LocalTransport(server)
        for _ in range(3):
            meta, _ = decode_message(
                transport.call(encode_message({"op": "manifest"}))
            )
            assert "refs" in meta  # served, not an internal-error frame

    def test_cache_bounded_by_total_bytes(self):
        from repro.remote import ResponseCache

        cache = ResponseCache(max_entries=100, max_total_bytes=100)
        token = (0,)
        cache.put(b"a", token, bytes(60))
        cache.put(b"b", token, bytes(60))  # evicts a: 120 > 100
        assert cache.get(b"a", token) is None
        assert cache.get(b"b", token) is not None
        cache.put(b"big", token, bytes(101))  # larger than the budget
        assert cache.get(b"big", token) is None
        assert cache._total_bytes <= 100


class TestConcurrentStress:
    @pytest.fixture
    def http_server(self, server_repo):
        server = serve(server_repo, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_many_readers_one_pusher_no_dropped_requests(
        self, http_server, server_repo, workload
    ):
        n_readers, n_reads, n_pushes = 4, 6, 3
        errors: list[Exception] = []

        writer = clone_repository(
            HttpTransport(http_server.url), registry=server_repo.registry
        )
        pushed_heads = {}
        for idx in range(n_pushes):
            branch = f"stress-{idx}"
            writer.branch(workload.name, branch)
            commit, _ = writer.commit(
                workload.name,
                {"model": workload.model_version(idx + 2)},
                branch=branch,
                message=f"stress {idx}",
            )
            pushed_heads[branch] = commit.commit_id

        start = threading.Barrier(n_readers + 1, timeout=30)

        def reader():
            try:
                transport = HttpTransport(http_server.url)
                clone = clone_repository(transport, registry=server_repo.registry)
                remote = clone.remote("origin")
                start.wait()
                for _ in range(n_reads):
                    remote.manifest()
                    remote.fetch()
                transport.close()
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        def pusher():
            try:
                start.wait()
                for branch in pushed_heads:
                    writer.remote("origin").push(workload.name, branch)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(n_readers)]
        threads.append(threading.Thread(target=pusher))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # Every push landed exactly where the writer put it.
        for branch, head in pushed_heads.items():
            assert server_repo.branches.head(workload.name, branch) == head
        # And a fresh reader sees a consistent final state.
        final = clone_repository(
            HttpTransport(http_server.url), registry=server_repo.registry
        )
        for branch, head in pushed_heads.items():
            assert final.branches.head(workload.name, branch) == head
