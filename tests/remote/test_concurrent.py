"""Concurrency: reader-writer locking, the response cache, and a stress run.

The server's contract under concurrent traffic: reads run in parallel
(a request answered twice with nothing changed since is served from the
response cache, and never across a change), pushes serialize behind the
write lock, and a many-readers-plus-one-pusher storm drops no request
and converges on the correct refs.
"""

import sys
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


def window(digests) -> bytes:
    return encode_message({"op": "get_chunks", "digests": list(digests)})


def uncached(server, request: bytes) -> bytes:
    """What ``server`` would answer now without its response cache."""
    return RepositoryServer(
        server.repo, cache_entries=0, max_pack_bytes=server.max_pack_bytes
    ).handle_bytes(request)


def cached_window(server, request: bytes) -> None:
    """Ask three times: stored on the second, served on the third."""
    hits = server.cache.hits
    answers = {server.handle_bytes(request) for _ in range(3)}
    assert len(answers) == 1 and server.cache.hits == hits + 1


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
        # Stored on its second arrival, served from the third on.
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        answers = {
            transport.call(encode_message({"op": "manifest"})) for _ in range(3)
        }
        assert len(answers) == 1
        assert server.cache.hits == 1

    def test_one_off_windows_hold_no_bytes_a_repeated_one_is_held(
        self, server_repo
    ):
        server = RepositoryServer(server_repo)
        digests = sorted(server_repo.objects.chunks.digests())
        assert len(digests) > 4
        for digest in digests:
            server.handle_bytes(window([digest]))
        assert server.cache.snapshot()["bytes"] == 0
        answer = server.handle_bytes(window(digests[:2]))
        assert server.handle_bytes(window(digests[:2])) == answer
        assert server.cache.snapshot()["bytes"] == len(answer)
        assert server.handle_bytes(window(digests[:2])) == answer
        assert server.cache.hits == 1

    def test_a_cached_window_is_not_served_after_a_push(
        self, server_repo, workload
    ):
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        clone = clone_repository(transport, registry=server_repo.registry)
        request = window(sorted(server_repo.objects.chunks.digests())[:3])
        cached_window(server, request)
        clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="new"
        )
        clone.remote("origin").push(workload.name, "master")
        hits = server.cache.hits
        assert server.handle_bytes(request) == uncached(server, request)
        assert server.cache.hits == hits

    def test_a_cached_window_is_not_served_after_a_gc_discard(self, server_repo):
        server = RepositoryServer(server_repo)
        orphan = server_repo.objects.chunks.put(b"a chunk no recipe names")
        request = window([orphan])
        cached_window(server, request)
        with server.maintenance() as repo:
            assert repo.gc().swept_chunks == 1
        meta, blobs = decode_message(server.handle_bytes(request))
        assert meta["error"]["type"] == "ChunkNotFoundError" and blobs == []

    def test_a_cached_window_is_not_served_after_an_out_of_band_write(
        self, server_repo
    ):
        server = RepositoryServer(server_repo)
        request = window(sorted(server_repo.objects.chunks.digests())[:3])
        cached_window(server, request)
        server_repo.objects.chunks.put(b"written behind the server")
        hits = server.cache.hits
        assert server.handle_bytes(request) == uncached(server, request)
        assert server.cache.hits == hits

    def test_readers_beside_a_pusher_see_only_answers_of_a_real_state(
        self, server_repo, workload
    ):
        """Two readers re-request the same windows, the manifest and a
        full fetch while a pusher lands three pushes, and go on until it
        is done: each answer is byte-equal to an uncached server's at a
        state the reader could have seen — one no older than the last
        push finished before the request was sent. More threads than
        cores, short switch interval."""
        server = RepositoryServer(server_repo, max_pack_bytes=2048)
        transport = LocalTransport(server)
        writer = clone_repository(transport, registry=server_repo.registry)
        branches = []
        for idx in range(3):
            branch = f"race-{idx}"
            writer.branch(workload.name, branch)
            writer.commit(
                workload.name,
                {"model": workload.model_version(idx + 2)},
                branch=branch,
                message=f"race {idx}",
            )
            branches.append(branch)
        digests = sorted(server_repo.objects.chunks.digests())
        step = max(1, len(digests) // 4)
        requests = [window(digests[i:]) for i in range(0, len(digests), step)] + [
            encode_message({"op": "manifest"}),
            encode_message({"op": "fetch", "want": None, "have_commits": []}),
        ]
        #: answers[k]: what an uncached server answers after k pushes.
        answers = [{request: uncached(server, request) for request in requests}]
        seen: list[tuple[bytes, bytes, int, int]] = []
        errors: list[BaseException] = []
        pushed = threading.Event()
        start = threading.Barrier(3, timeout=30)

        def reader():
            try:
                start.wait()
                for _ in range(500):
                    last_round = pushed.is_set()
                    for request in requests:
                        # Pushes finished before the request: the answer
                        # may be of that state or of any later one.
                        oldest = len(answers) - 1
                        answer = server.handle_bytes(request)
                        seen.append((request, answer, oldest, len(answers)))
                    if last_round:
                        break
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        def pusher():
            try:
                start.wait()
                for branch in branches:
                    writer.remote("origin").push(workload.name, branch)
                    # Only this thread writes: what it reads here is the
                    # state every reader sees until its next push.
                    answers.append(
                        {request: uncached(server, request) for request in requests}
                    )
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)
            finally:
                pushed.set()

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=pusher))
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
        assert errors == []
        assert len(answers) == len(branches) + 1
        stale = [
            (request, oldest)
            for request, answer, oldest, newest in seen
            # newest + 1: a push can land before the pusher appends its
            # answers, so the state after it is visible one step early.
            if answer not in (
                answers[k][request]
                for k in range(oldest, min(newest + 1, len(answers)))
            )
        ]
        assert stale == []
        # The final round ran after the last push: it saw that state.
        assert {answer for _, answer, oldest, _ in seen if oldest == len(branches)}
        assert server.cache.hits > 0

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
        for key in (b"a", b"b"):  # stored on the second offer
            cache.put(key, token, bytes(60))
            cache.put(key, token, bytes(60))  # b evicts a: 120 > 100
        assert cache.get(b"a", token) is None
        assert cache.get(b"b", token) is not None
        cache.put(b"big", token, bytes(101))  # larger than the budget
        cache.put(b"big", token, bytes(101))
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
