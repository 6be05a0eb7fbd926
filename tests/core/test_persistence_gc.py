"""Persistence (save_dir/load_dir) and garbage-collection tests."""

import json

import numpy as np
import pytest

from repro.core import MLCask
from repro.errors import RepositoryError
from repro.storage import ObjectStore, collect_garbage
from repro.storage.gc import live_digests_of_repo

from helpers import build_fig3_history, fresh_toy_repo, toy_model


class TestSaveLoad:
    def test_roundtrip_preserves_history(self, tmp_path):
        repo = build_fig3_history()
        repo.save_dir(tmp_path / "repo")
        loaded = MLCask.load_dir(tmp_path / "repo")
        assert len(loaded.graph) == len(repo.graph)
        assert loaded.head_commit("toy", "dev").label == "dev.0.2"
        assert loaded.head_commit("toy", "master").label == "master.0.1"

    def test_roundtrip_preserves_scores_and_messages(self, tmp_path):
        repo = fresh_toy_repo(model_quality=0.62)
        repo.commit("toy", {"model": toy_model(1, 0.7)}, message="better model")
        repo.save_dir(tmp_path / "repo")
        loaded = MLCask.load_dir(tmp_path / "repo")
        head = loaded.head_commit("toy")
        assert head.score == 0.7
        assert head.message == "better model"

    def test_version_numbering_continues(self, tmp_path):
        repo = fresh_toy_repo()
        repo.commit("toy", {"model": toy_model(1, 0.6)})
        repo.save_dir(tmp_path / "repo")
        loaded = MLCask.load_dir(tmp_path / "repo", registry=repo.registry)
        commit, _ = loaded.commit("toy", {"model": toy_model(2, 0.7)})
        assert commit.label == "master.0.2"  # not reset to 0.0

    def test_loaded_repo_can_merge_with_registry(self, tmp_path):
        repo = build_fig3_history()
        repo.save_dir(tmp_path / "repo")
        loaded = MLCask.load_dir(tmp_path / "repo", registry=repo.registry)
        outcome = loaded.merge("toy", "master", "dev", mode="pcpr")
        assert outcome.commit.score == 0.8

    def test_load_without_registry_keeps_history_readable(self, tmp_path):
        repo = build_fig3_history()
        repo.save_dir(tmp_path / "repo")
        loaded = MLCask.load_dir(tmp_path / "repo")  # no components registered
        assert loaded.log("toy", "dev")
        assert loaded.best_commit("toy").score == 0.8
        with pytest.raises(RepositoryError):
            loaded.instance_for(loaded.head_commit("toy", "dev"))

    def test_bad_format_rejected(self, tmp_path):
        fresh_toy_repo().save_dir(tmp_path / "repo")
        state = tmp_path / "repo" / "state.json"
        state.write_text(json.dumps({**json.loads(state.read_text()), "format": 99}))
        with pytest.raises(RepositoryError, match="unsupported repository format 99"):
            MLCask.load_dir(tmp_path / "repo")


class TestObjectStoreGC:
    def test_sweeps_unreferenced_blobs(self):
        store = ObjectStore()
        rng = np.random.default_rng(0)
        keep = store.put(rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes())
        drop = store.put(rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes())
        before = store.stats.physical_bytes
        report = collect_garbage(store, {keep})
        assert report.swept_chunks > 0
        assert store.stats.physical_bytes < before
        assert store.contains(keep)
        assert not store.contains(drop)

    def test_shared_chunks_survive(self):
        store = ObjectStore()
        rng = np.random.default_rng(1)
        base = rng.integers(0, 256, 60_000, dtype=np.uint8).tobytes()
        edited = base[:30_000] + bytes(16) + base[30_016:]
        keep = store.put(base)
        store.put(edited)  # shares most chunks with base
        collect_garbage(store, {keep})
        assert store.get(keep) == base  # shared chunks not over-swept

    def test_empty_live_set_sweeps_all(self):
        store = ObjectStore()
        store.put(b"x" * 10_000)
        report = collect_garbage(store, set())
        assert report.live_blobs == 0
        assert len(store) == 0

    def test_gc_report_counts(self):
        store = ObjectStore()
        digest = store.put(b"y" * 10_000)
        report = collect_garbage(store, {digest})
        assert report.live_blobs == 1
        assert report.swept_chunks == 0


class TestRepositoryGC:
    def test_merge_losers_reclaimed(self):
        repo = build_fig3_history()
        repo.merge("toy", "master", "dev", mode="pcpr")
        bytes_before = repo.objects.stats.physical_bytes
        checkpoints_before = len(repo.checkpoints)
        report = repo.gc()
        # losing candidates' model outputs are reclaimable
        assert report.swept_chunks >= 0
        assert len(repo.checkpoints) <= checkpoints_before
        assert repo.objects.stats.physical_bytes <= bytes_before

    def test_committed_outputs_survive_gc(self):
        repo = build_fig3_history()
        outcome = repo.merge("toy", "master", "dev", mode="pcpr")
        repo.gc()
        # every commit's stage outputs must still load
        for commit in repo.graph.all_commits():
            for ref in commit.stage_outputs.values():
                assert repo.objects.contains(ref), commit.label

    def test_rerun_after_gc_repopulates(self):
        repo = build_fig3_history()
        repo.merge("toy", "master", "dev", mode="pcpr")
        repo.gc()
        # a new commit re-executes what it needs and succeeds (the merge
        # winner uses extract 1.0, so the new model consumes feat_v1)
        commit, report = repo.commit(
            "toy", {"model": toy_model(7, 0.65, in_variant=1)}
        )
        assert commit.score == 0.65

    def test_live_digest_collection(self):
        repo = fresh_toy_repo()
        live = live_digests_of_repo(repo)
        head = repo.head_commit("toy")
        assert set(head.stage_outputs.values()) <= live
