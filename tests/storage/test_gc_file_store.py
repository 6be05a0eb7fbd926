"""GC beyond MemoryChunkStore: file-backed sweeps and `repro gc`."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.core.persistence import gc_repository_dir
from repro.storage import FileChunkStore, ObjectStore, collect_garbage

from helpers import build_workload_repo, bytes_under, committed_rows


@pytest.fixture(scope="module")
def workload():
    from repro.workloads import ALL_WORKLOADS

    return ALL_WORKLOADS["readmission"](scale=0.3, seed=0)


def blob_for(seed, n=30_000):
    return np.random.default_rng(seed).integers(
        0, 256, n, dtype=np.uint8
    ).tobytes()


class TestFileStoreSweep:
    def test_dead_chunk_files_are_unlinked(self, tmp_path):
        store = ObjectStore(chunk_store=FileChunkStore(tmp_path / "objects"))
        keep = store.put(blob_for(1))
        store.put(blob_for(2))
        before = bytes_under(tmp_path / "objects")
        assert before == store.chunks.stats.physical_bytes

        report = collect_garbage(store, {keep})

        assert report.swept_chunks > 0
        assert report.swept_bytes > 0
        # forgotten at once, given back by the compaction
        assert len(store.chunks) == report.live_chunks
        assert bytes_under(tmp_path / "objects") == before
        store.chunks.compact()
        assert bytes_under(tmp_path / "objects") == before - report.swept_bytes
        assert bytes_under(tmp_path / "objects") == store.chunks.stats.physical_bytes
        assert store.get(keep) == blob_for(1)
        reopened = FileChunkStore(tmp_path / "objects")
        assert sorted(reopened.digests()) == sorted(store.chunks.digests())

    def test_sweep_everything_empties_the_directory(self, tmp_path):
        store = ObjectStore(chunk_store=FileChunkStore(tmp_path / "objects"))
        store.put(blob_for(3))
        store.put(blob_for(4))
        collect_garbage(store, set())
        store.chunks.compact()
        assert bytes_under(tmp_path / "objects") == 0
        assert store.chunks.stats.physical_bytes == 0

    def test_file_sweep_idempotent(self, tmp_path):
        store = ObjectStore(chunk_store=FileChunkStore(tmp_path / "objects"))
        keep = store.put(blob_for(5))
        store.put(blob_for(6))
        first = collect_garbage(store, {keep})
        second = collect_garbage(store, {keep})
        assert first.swept_chunks > 0
        assert second.swept_chunks == 0 and second.swept_bytes == 0


class TestRepositoryDirGC:
    def make_repo_dir(self, tmp_path, workload):
        """A repository directory with one unreferenced (dead) blob."""
        repo = build_workload_repo(workload)
        dead = repo.objects.put(blob_for(7))
        repo_dir = tmp_path / "repo"
        repo.save_dir(repo_dir)
        return repo, repo_dir, dead

    def test_sweeps_unreferenced_blob_and_rewrites_metadata(
        self, tmp_path, workload
    ):
        from repro.core.repository import MLCask

        repo, repo_dir, dead = self.make_repo_dir(tmp_path, workload)
        report, _pruned = gc_repository_dir(repo_dir)
        assert report.swept_chunks > 0

        recipes = {e["blob"] for e in committed_rows(repo_dir)["recipes"]}
        assert dead not in recipes

        # reloaded repository still serves every commit-referenced output
        reloaded = MLCask.load_dir(repo_dir)
        for commit in reloaded.graph.all_commits():
            for ref in commit.stage_outputs.values():
                assert reloaded.objects.get(ref)

    def test_checkpoint_records_pruned_unless_kept(self, tmp_path, workload):
        repo, repo_dir, _ = self.make_repo_dir(tmp_path, workload)
        n_records = len(committed_rows(repo_dir)["checkpoints"])
        assert n_records > 0

        # default: records whose outputs stay live survive; keep mode too
        _, pruned_kept = gc_repository_dir(repo_dir, keep_checkpoints=True)
        assert pruned_kept == 0
        _, pruned = gc_repository_dir(repo_dir)
        remaining = len(committed_rows(repo_dir)["checkpoints"])
        assert remaining == n_records - pruned

    def test_second_run_sweeps_nothing(self, tmp_path, workload):
        _, repo_dir, _ = self.make_repo_dir(tmp_path, workload)
        gc_repository_dir(repo_dir)
        report, pruned = gc_repository_dir(repo_dir)
        assert report.swept_chunks == 0 and pruned == 0


class TestGcCommand:
    def test_cli_gc_reports_and_reclaims(self, tmp_path, workload):
        repo = build_workload_repo(workload)
        repo.objects.put(blob_for(8))
        repo_dir = tmp_path / "repo"
        repo.save_dir(repo_dir)

        out = io.StringIO()
        code = main(["gc", str(repo_dir)], out=out)
        assert code == 0
        text = out.getvalue()
        assert "swept" in text and "live" in text

        out = io.StringIO()
        assert main(["gc", str(repo_dir)], out=out) == 0
        assert "swept 0 chunks (0 bytes)" in out.getvalue()

    def test_cli_gc_on_non_repo_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        code = main(["gc", str(tmp_path)], out=out)
        assert code == 1
        assert "not a repository directory" in out.getvalue()
