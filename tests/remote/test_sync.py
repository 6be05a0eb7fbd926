"""End-to-end sync over LocalTransport: clone, push, pull, and the edges."""

import pytest

from repro import MLCask
from repro.errors import ChunkIntegrityError, PushRejectedError, RemoteError
from repro.remote import LocalTransport, RepositoryServer, clone_repository
from repro.remote.protocol import decode_message


class RecordingTransport(LocalTransport):
    """A LocalTransport that notes the op of every request it sends."""

    def __init__(self, server):
        super().__init__(server)
        self.ops = []

    def _call(self, payload):
        self.ops.append(decode_message(payload)[0]["op"])
        return super()._call(payload)


def make_clone(transport, server_repo):
    """Clone sharing the server's registry (components are live objects)."""
    return clone_repository(transport, registry=server_repo.registry)


class TestClone:
    def test_replicates_refs_commits_and_content(self, transport, server_repo, workload):
        clone = make_clone(transport, server_repo)
        assert len(clone.graph) == len(server_repo.graph)
        assert {c.commit_id for c in clone.graph.all_commits()} == {
            c.commit_id for c in server_repo.graph.all_commits()
        }
        assert clone.branches.head(workload.name, "master") == (
            server_repo.branches.head(workload.name, "master")
        )
        # Every archived stage output is readable from the clone.
        for commit in clone.graph.all_commits():
            for ref in commit.stage_outputs.values():
                assert clone.objects.get(ref) == server_repo.objects.get(ref)

    def test_clone_carries_config_and_tracking_ref(self, transport, server_repo, workload):
        clone = make_clone(transport, server_repo)
        assert clone.metric == server_repo.metric
        assert clone.seed == server_repo.seed
        assert clone.branches.head(workload.name, "origin/master") == (
            server_repo.branches.head(workload.name, "master")
        )

    def test_clone_reuses_replicated_checkpoints(self, transport, server_repo, workload):
        """The checkpoint index travels with the content, so a clone's
        first run reuses the server's archived outputs instead of
        recomputing the whole pipeline (paper section VI-B, across
        repositories)."""
        clone = make_clone(transport, server_repo)
        _, report = clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="local"
        )
        assert report.n_reused > 0
        assert report.n_executed == 1  # only the new model actually ran

    def test_clone_can_continue_history_and_merge(self, transport, server_repo, workload):
        clone = make_clone(transport, server_repo)
        clone.branch(workload.name, "dev")
        clone.commit(
            workload.name,
            {"model": workload.model_version(2)},
            branch="dev",
            message="dev work",
        )
        outcome = clone.merge(workload.name, "master", "dev")
        assert outcome.commit.branch == "master"


class TestPush:
    def test_fast_forward_push_moves_server_head(self, transport, server_repo, workload):
        clone = make_clone(transport, server_repo)
        commit, _ = clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="new"
        )
        result = clone.remote("origin").push(workload.name, "master")
        assert result.commits_sent == 1
        assert server_repo.branches.head(workload.name, "master") == commit.commit_id

    def test_push_when_current_is_up_to_date(self, transport, server_repo, workload):
        clone = make_clone(transport, server_repo)
        result = clone.remote("origin").push(workload.name, "master")
        assert result.up_to_date
        assert result.chunks_sent == 0

    def test_incremental_push_ships_only_missing_chunks(
        self, transport, server_repo, workload
    ):
        """Chunk negotiation: a one-commit delta transfers far less than
        the repository holds — the server reports what it lacks and only
        that crosses the wire."""
        clone = make_clone(transport, server_repo)
        clone.commit(workload.name, {"model": workload.model_version(2)}, message="new")
        novel = set(clone.objects.chunks.digests()) - set(server_repo.objects.chunks.digests())
        transport.reset_counters()
        result = clone.remote("origin").push(workload.name, "master")
        total_chunks = len(clone.objects.chunks.digests())
        assert 0 < result.chunks_sent < total_chunks / 2
        # exactly the chunks the server lacked, each once, and one commit
        assert result.commits_sent == 1 and result.chunks_sent == len(novel)
        assert result.chunk_bytes_sent == sum(len(clone.objects.chunks.get(d)) for d in novel)
        # And the pushed content is valid on the server.
        head = server_repo.head_commit(workload.name)
        for ref in head.stage_outputs.values():
            server_repo.objects.get(ref)

    @pytest.mark.parametrize("fetched", [False, True], ids=["client_refuses", "server_refuses"])
    def test_diverged_push_rejected_then_merge_and_push_succeeds(
        self, server_repo, workload, fetched
    ):
        """A server head the client does not hold is refused by the client
        after one ``manifest`` request, before any pack is shipped; once
        fetched, the push ships and the server's fast-forward gate refuses
        it. Either way the server's refs and stores stay as they were."""
        transport = RecordingTransport(RepositoryServer(server_repo))
        clone = make_clone(transport, server_repo)
        server_repo.commit(
            workload.name, {"model": workload.model_version(2)}, message="server"
        )
        clone.commit(
            workload.name, {"model": workload.model_version(3)}, message="client"
        )
        if fetched:
            clone.remote("origin").fetch()
        held_chunks = set(server_repo.objects.chunks.digests())
        transport.ops.clear()
        with pytest.raises(PushRejectedError, match="non-fast-forward"):
            clone.remote("origin").push(workload.name, "master")
        assert (transport.ops[-1] == "push") is fetched
        if not fetched:
            assert transport.ops == ["manifest"]
        assert set(server_repo.objects.chunks.digests()) == held_chunks
        server_head = server_repo.head_commit(workload.name)
        assert server_head.message == "server"

        pulled = clone.remote("origin").pull(workload.name, "master")
        assert pulled.action == "merged"
        assert not pulled.outcome.fast_forward  # the real metric-driven merge
        result = clone.remote("origin").push(workload.name, "master")
        assert result.commits_sent >= 1
        merged_head = server_repo.head_commit(workload.name)
        assert server_head.commit_id in server_repo.graph.ancestors(
            merged_head.commit_id
        )

    def test_push_with_locally_missing_content_is_a_clean_error(
        self, transport, server_repo, workload
    ):
        """A recipe whose chunks never arrived (interrupted fetch,
        metadata-only restore) must fail push with guidance, not a raw
        ChunkNotFoundError."""
        clone = make_clone(transport, server_repo)
        commit, _ = clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="new"
        )
        # Drop one chunk the new commit needs from the local store.
        new_blobs = set(commit.stage_outputs.values())
        victim = next(iter(clone.objects.reachable_chunks(new_blobs)))
        if server_repo.objects.chunks.contains(victim):
            victim = next(
                d
                for d in clone.objects.reachable_chunks(new_blobs)
                if not server_repo.objects.chunks.contains(d)
            )
        del clone.objects.chunks._chunks[victim]
        with pytest.raises(RemoteError, match="referenced by a local recipe"):
            clone.remote("origin").push(workload.name, "master")

    @pytest.mark.parametrize("fetched", [False, True], ids=["client_refuses", "server_refuses"])
    def test_concurrent_push_race_rejected(self, server_repo, workload, fetched):
        """Two clones race to publish: the slower push is rejected (its
        head does not descend from the winner's), nothing is lost. The
        slower clone refuses it itself while it lacks the winner's head;
        once it has fetched that head, the server's gate refuses it."""
        server = RepositoryServer(server_repo)
        fast = make_clone(LocalTransport(server), server_repo)
        slow_transport = RecordingTransport(server)
        slow = make_clone(slow_transport, server_repo)
        fast.commit(workload.name, {"model": workload.model_version(2)}, message="fast")
        slow.commit(workload.name, {"model": workload.model_version(3)}, message="slow")
        fast.remote("origin").push(workload.name, "master")
        if fetched:
            slow.remote("origin").fetch()
        slow_transport.ops.clear()
        with pytest.raises(PushRejectedError):
            slow.remote("origin").push(workload.name, "master")
        assert (slow_transport.ops[-1] == "push") is fetched
        assert server_repo.head_commit(workload.name).message == "fast"

    def test_push_that_lost_the_race_is_refused_before_its_content_lands(
        self, server_repo, workload
    ):
        """The server's head moves between the client's ref negotiation
        and its push message: the push is stale, and nothing it carried
        — chunks, recipes, commits — may reach the server's stores."""
        server = RepositoryServer(server_repo)

        class RacedTransport(LocalTransport):
            def _call(self, payload):
                meta, _ = decode_message(payload)
                if meta["op"] == "push":
                    server_repo.commit(
                        workload.name,
                        {"model": workload.model_version(2)},
                        message="winner",
                    )
                    self.before = snapshot()
                return super()._call(payload)

        def snapshot():
            return (
                len(server_repo.graph),
                len(server_repo.objects),
                len(server_repo.objects.chunks),
                len(server_repo.checkpoints),
                len(server_repo.lineage),
            )

        transport = RacedTransport(server)
        clone = make_clone(transport, server_repo)
        clone.commit(
            workload.name, {"model": workload.model_version(3)}, message="loser"
        )
        with pytest.raises(PushRejectedError, match="stale old head"):
            clone.remote("origin").push(workload.name, "master")
        assert snapshot() == transport.before
        assert server_repo.head_commit(workload.name).message == "winner"


class TestPull:
    def test_fast_forward_pull(self, transport, server_repo, workload):
        clone = make_clone(transport, server_repo)
        server_repo.commit(
            workload.name, {"model": workload.model_version(2)}, message="upstream"
        )
        result = clone.remote("origin").pull(workload.name, "master")
        assert result.action == "fast-forward"
        assert clone.head_commit(workload.name).message == "upstream"

    def test_pull_with_zero_missing_chunks_transfers_no_content(
        self, transport, server_repo, workload
    ):
        """An up-to-date pull negotiates, finds nothing missing, and
        never issues a chunk request: zero content bytes on the wire."""
        clone = make_clone(transport, server_repo)
        transport.reset_counters()
        result = clone.remote("origin").pull(workload.name, "master")
        assert result.action == "up-to-date"
        assert result.fetch.chunks_received == 0
        assert result.fetch.chunk_bytes_received == 0
        assert transport.requests == 1  # the fetch; no get_chunks round-trip

    def test_pull_unknown_branch_is_a_clean_error(self, transport, server_repo, workload):
        clone = make_clone(transport, server_repo)
        with pytest.raises(RemoteError, match="branch not found"):
            clone.remote("origin").pull(workload.name, "nonexistent")

    def test_diverged_pull_without_merge_refuses(self, transport, server_repo, workload):
        clone = make_clone(transport, server_repo)
        server_repo.commit(
            workload.name, {"model": workload.model_version(2)}, message="server"
        )
        clone.commit(
            workload.name, {"model": workload.model_version(3)}, message="client"
        )
        with pytest.raises(RemoteError, match="diverged"):
            clone.remote("origin").pull(workload.name, "master", merge=False)


class TestIntegrity:
    def test_corrupt_chunk_from_server_raises_clean_error(
        self, server_repo, workload
    ):
        """A server shipping bytes that do not match their digest is
        caught at receive time, before anything lands in the store."""
        chunks = server_repo.objects.chunks._chunks
        victim = next(iter(chunks))
        chunks[victim] = chunks[victim] + b"\x00corrupted"
        transport = LocalTransport(RepositoryServer(server_repo))
        with pytest.raises(ChunkIntegrityError, match=victim[:12]):
            clone_repository(transport, registry=server_repo.registry)

    def test_failed_fetch_leaves_repository_consistent(
        self, transport, server_repo, workload
    ):
        """A fetch aborted by a bad chunk must not leave recipes pointing
        at content that never arrived (that state would poison pushes);
        a retry after the server is repaired must succeed."""
        clone = make_clone(transport, server_repo)
        commit, _ = server_repo.commit(
            workload.name, {"model": workload.model_version(2)}, message="upstream"
        )
        new_blobs = set(commit.stage_outputs.values())
        victim = next(
            d
            for d in server_repo.objects.reachable_chunks(new_blobs)
            if not clone.objects.chunks.contains(d)
        )
        original = server_repo.objects.chunks._chunks[victim]
        server_repo.objects.chunks._chunks[victim] = original + b"X"
        with pytest.raises(ChunkIntegrityError):
            clone.remote("origin").fetch(workload.name, ["master"])
        # Invariant: every locally-held recipe is fully backed by chunks.
        for recipe in clone.objects.recipes():
            for digest in recipe.chunk_digests:
                assert clone.objects.chunks.contains(digest)
        # Server repaired -> the retry completes the sync.
        server_repo.objects.chunks._chunks[victim] = original
        clone.remote("origin").fetch(workload.name, ["master"])
        for ref in commit.stage_outputs.values():
            assert clone.objects.get(ref) == server_repo.objects.get(ref)

    def test_corrupt_chunk_in_push_rejected_server_side(
        self, transport, server_repo, workload
    ):
        clone = make_clone(transport, server_repo)
        clone.commit(workload.name, {"model": workload.model_version(2)}, message="new")
        chunks = clone.objects.chunks._chunks
        # Corrupt a chunk the server does not yet have.
        missing = server_repo.objects.chunks.missing(list(chunks))
        victim = missing[0]
        chunks[victim] = chunks[victim] + b"tampered"
        old_head = server_repo.branches.head(workload.name, "master")
        with pytest.raises(RemoteError, match="integrity"):
            clone.remote("origin").push(workload.name, "master")
        assert server_repo.branches.head(workload.name, "master") == old_head


class TestTrackingRefHygiene:
    def test_tracking_refs_are_not_advertised_downstream(
        self, transport, server_repo, workload
    ):
        """Cloning a clone must not propagate 'origin/master' as a real
        branch (which would nest one 'origin/' per hop)."""
        first = make_clone(transport, server_repo)
        assert first.branches.has_branch(workload.name, "origin/master")
        second = clone_repository(
            LocalTransport(RepositoryServer(first)), registry=server_repo.registry
        )
        branches = second.branches.branches(workload.name)
        assert "origin/master" in branches  # its OWN tracking ref...
        assert "origin/origin/master" not in branches  # ...but not re-exported
        assert [b for b in branches if "/" not in b] == ["master"]


class TestDirectoryPersistence:
    """save_dir/load_dir: the on-disk format the CLI remotes rely on."""

    def test_roundtrip_preserves_state_and_content(
        self, tmp_path, server_repo, workload
    ):
        root = tmp_path / "repo"
        server_repo.save_dir(root)
        loaded = MLCask.load_dir(root, registry=server_repo.registry)
        assert len(loaded.graph) == len(server_repo.graph)
        assert loaded.branches.head(workload.name, "master") == (
            server_repo.branches.head(workload.name, "master")
        )
        head = loaded.head_commit(workload.name)
        for ref in head.stage_outputs.values():
            assert loaded.objects.get(ref) == server_repo.objects.get(ref)
        assert len(loaded.checkpoints) == len(server_repo.checkpoints)

    def test_loaded_dir_can_serve_clones(self, tmp_path, server_repo, workload):
        server_repo.save_dir(tmp_path / "repo")
        reloaded = MLCask.load_dir(tmp_path / "repo")
        clone = clone_repository(LocalTransport(RepositoryServer(reloaded)))
        assert len(clone.graph) == len(server_repo.graph)

    def test_load_dir_rejects_non_repository(self, tmp_path):
        from repro.errors import RepositoryError

        with pytest.raises(RepositoryError, match="not a repository"):
            MLCask.load_dir(tmp_path / "nowhere")

    def test_save_dir_mirrors_deletions(self, tmp_path, server_repo, workload):
        """Chunks swept by gc must not resurrect from disk on reload."""
        root = tmp_path / "repo"
        junk = server_repo.objects.put(b"abandoned experiment output" * 1000)
        server_repo.save_dir(root)
        junk_chunks = set(server_repo.objects.recipe(junk).chunk_digests)
        server_repo.gc()
        assert not server_repo.objects.contains(junk)
        server_repo.save_dir(root)
        reloaded = MLCask.load_dir(root)
        held = set(reloaded.objects.chunks.digests())
        assert not (held & junk_chunks)
