"""Chunk-transfer batching: the max-pack-bytes window on both sides.

Large content sets must never materialize in a single wire message: the
server windows ``get_chunks`` responses and the client splits oversized
pushes into ``put_chunks`` batches ahead of the ref update. These tests
drive both paths with a window small enough that everything batches.
"""

import pytest

from repro.errors import ChunkNotFoundError
from repro.remote import (
    LocalTransport,
    RepositoryServer,
    clone_repository,
    encode_message,
)
from repro.remote.pack import iter_chunk_batches
from repro.remote.protocol import decode_message
from repro.storage import MemoryChunkStore

TINY_WINDOW = 1024  # bytes; far below any workload's content size


def store_of(*sizes: int) -> tuple[MemoryChunkStore, list[str]]:
    """A store holding one distinct chunk per size, and their digests."""
    store = MemoryChunkStore()
    return store, [store.put(bytes([i]) * size) for i, size in enumerate(sizes)]


class TestIterChunkBatches:
    def test_batches_respect_budget(self):
        store, digests = store_of(*[100] * 10)
        batches = list(iter_chunk_batches(store, digests, 250))
        assert all(sum(sizes) <= 250 for _, sizes, _, _ in batches)
        assert [d for batch, *_ in batches for d in batch] == digests
        for batch, sizes, blobs, _ in batches:
            assert list(blobs) == [store.get(d) for d in batch]
            assert sizes == [len(store.get(d)) for d in batch]

    def test_has_more_true_except_on_final_batch(self):
        store, digests = store_of(*[100] * 5)
        flags = [
            has_more for *_, has_more in iter_chunk_batches(store, digests, 200)
        ]
        assert flags == [True, True, False]

    def test_oversized_chunk_still_ships_alone(self):
        store, digests = store_of(500, 10)
        batches = list(iter_chunk_batches(store, digests, 100))
        assert [batch for batch, *_ in batches] == [digests[:1], digests[1:]]

    def test_empty_input_yields_nothing(self):
        assert list(iter_chunk_batches(MemoryChunkStore(), [], 100)) == []

    def test_reads_only_the_chunks_it_yields(self):
        store, digests = store_of(100, 100, 100)
        batch, sizes, blobs, has_more = next(iter_chunk_batches(store, digests, 250))
        assert (batch, sizes, has_more) == (digests[:2], [100, 100], True)
        assert store.stats.reads == 0  # cut from sizes; nothing read yet
        assert len(encode_message({}, blobs, sizes)) > 200
        assert store.stats.reads == 2  # the third was sized, never read

    def test_unheld_digest_is_a_typed_miss(self):
        store, digests = store_of(100)
        with pytest.raises(ChunkNotFoundError):
            list(iter_chunk_batches(store, [*digests, "0" * 64], 1000))


class TestWindowedGetChunks:
    def test_server_windows_responses(self, server_repo):
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        digests = server_repo.objects.chunks.digests()
        assert len(digests) > 1
        meta, blobs = decode_message(
            transport.call(
                encode_message(
                    {"op": "get_chunks", "digests": digests, "max_bytes": 1}
                )
            )
        )
        # A 1-byte budget still ships one chunk (progress guarantee)...
        assert len(meta["digests"]) == 1
        assert len(blobs) == 1
        # ...and reports exactly what did not fit.
        assert meta["remaining"] == len(digests) - 1

    def test_server_window_applies_without_max_bytes(self, server_repo):
        """The memory bound must hold against clients that do not opt in:
        a request naming no max_bytes is windowed at the server's own
        max_pack_bytes (and still reports the remainder)."""
        server = RepositoryServer(server_repo, max_pack_bytes=1)
        transport = LocalTransport(server)
        digests = server_repo.objects.chunks.digests()
        assert len(digests) > 1
        meta, blobs = decode_message(
            transport.call(
                encode_message({"op": "get_chunks", "digests": digests})
            )
        )
        assert meta["digests"] == digests[:1]  # prefix of request order
        assert meta["remaining"] == len(digests) - 1
        assert len(blobs) == 1

    def test_clone_through_a_tiny_window(self, server_repo):
        """The client loops get_chunks until nothing remains wanted."""
        server = RepositoryServer(server_repo, max_pack_bytes=TINY_WINDOW)
        transport = LocalTransport(server)
        clone = clone_repository(
            transport,
            registry=server_repo.registry,
            max_pack_bytes=TINY_WINDOW,
        )
        assert len(clone.graph) == len(server_repo.graph)
        for commit in clone.graph.all_commits():
            for ref in commit.stage_outputs.values():
                assert clone.objects.get(ref) == server_repo.objects.get(ref)
        # More than one content round-trip actually happened.
        total_chunks = len(server_repo.objects.chunks.digests())
        assert transport.requests > 2, transport.requests
        assert clone.objects.chunks.missing(
            server_repo.objects.chunks.digests()
        ) == []
        assert total_chunks > 1


class TestBatchedPush:
    def test_push_splits_into_put_chunks_batches(self, server_repo, workload):
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        clone = clone_repository(transport, registry=server_repo.registry)
        commit, _ = clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="big"
        )
        clone.remote("origin").max_pack_bytes = TINY_WINDOW
        transport.reset_counters()
        result = clone.remote("origin").push(workload.name, "master")
        assert server_repo.branches.head(workload.name, "master") == commit.commit_id
        assert result.chunks_sent > 1
        # negotiation (refs + missing_chunks) is 2 requests; anything above
        # 3 means the content actually travelled in put_chunks batches.
        assert transport.requests > 3, transport.requests
        # The pushed content is fully readable server-side.
        head = server_repo.head_commit(workload.name)
        for ref in head.stage_outputs.values():
            server_repo.objects.get(ref)

    def test_small_push_keeps_single_message_shape(self, server_repo, workload):
        """Content below the window travels inside the push message —
        request count identical to the pre-batching protocol."""
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        clone = clone_repository(transport, registry=server_repo.registry)
        clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="small"
        )
        transport.reset_counters()
        result = clone.remote("origin").push(workload.name, "master")
        assert not result.up_to_date
        # refs + missing_chunks + push: no put_chunks round-trips.
        assert transport.requests == 3, transport.requests

    def test_interrupted_batched_push_leaves_only_orphans(
        self, server_repo, workload
    ):
        """put_chunks batches that never see their push are harmless: no
        refs moved, no recipes registered, and a retry completes."""
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)
        clone = clone_repository(transport, registry=server_repo.registry)
        commit, _ = clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="retry"
        )
        remote = clone.remote("origin")
        remote.max_pack_bytes = TINY_WINDOW
        old_head = server_repo.branches.head(workload.name, "master")

        # Fail the final push message once, after the batches landed.
        original_call = transport._call

        def flaky_call(payload):
            meta, _ = decode_message(payload)
            if meta.get("op") == "push":
                raise ConnectionError("wire cut before the ref update")
            return original_call(payload)

        transport._call = flaky_call
        with pytest.raises(ConnectionError):
            remote.push(workload.name, "master")
        transport._call = original_call

        assert server_repo.branches.head(workload.name, "master") == old_head
        result = remote.push(workload.name, "master")
        assert server_repo.branches.head(workload.name, "master") == commit.commit_id
        # The orphaned chunks from the failed attempt were reused: the
        # retry re-negotiated and found nothing (or almost nothing) missing.
        assert result.chunks_sent == 0
