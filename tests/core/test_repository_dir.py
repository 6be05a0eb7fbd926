"""Working-copy repository directories: the journals behind one header.

The hub's directories are held to this contract in
``tests/hub/test_journal_persistence.py``; here the same writer, loader
and compaction run under ``save_dir`` / ``load_dir`` / ``gc_repository_dir``:
a save writes what the repository gained; a writer that dies at any
write — of a journal, of the header, of ``objects/``'s segment or index,
of its flush or of its compaction — leaves the previous committed state
(chunk bytes included) or, past the header, the new one, and a retry
converges; a handle whose directory moved on under it compacts instead
of appending; rows amended after they were saved are saved
again; a directory written by the pre-journal ``save_dir`` is refused.
"""

import itertools
import json
import os
import re
import shutil

import pytest

from repro import MLCask
from repro.codec import encode
from repro.core.persistence import gc_repository_dir, repository_header
from repro.errors import MLCaskError, RepositoryError
from repro.remote import LocalTransport, RepositoryServer
from repro.storage import FileChunkStore
from repro.storage.hashing import sha256_hex
from repro.workloads import ALL_WORKLOADS

from helpers import (
    Crash,
    build_workload_repo,
    committed_rows,
    die_before_write,
)

TIMINGS = ("run_seconds", "wall_seconds", "cpu_seconds")


@pytest.fixture(scope="module")
def workload():
    return ALL_WORKLOADS["readmission"](scale=0.3, seed=0)


# ------------------------------------------------------------------ helpers
def snapshot(repo) -> dict:
    """Everything a working copy persists, rows in arrival order."""
    return {
        "header": repository_header(repo),
        "commits": [encode(c) for c in repo.graph.arrivals()],
        "recipes": [encode(r) for r in repo.objects.recipes()],
        "records": [encode(r) for r in repo.checkpoints.records()],
        "lineage": [encode(r) for r in repo.lineage.records()],
    }


def untimed(state: dict) -> dict:
    """A snapshot without what the clock decides: the retry of a commit
    runs the pipeline again and times it anew."""
    return {
        key: [
            {k: v for k, v in row.items() if k not in TIMINGS} for row in value
        ]
        if isinstance(value, list)
        else value
        for key, value in state.items()
    }


def assert_every_blob_reassembles(repo) -> None:
    """Each recipe the repository holds — dead blobs too — still finds
    all of its chunks."""
    recipes = repo.objects.recipes()
    assert recipes
    for recipe in recipes:
        assert sha256_hex(repo.objects.get(recipe.blob_digest)) == recipe.blob_digest


def assert_objects_are_tidy(directory) -> None:
    """``objects/`` holds one generation and not a byte beyond the
    chunks a load of the directory finds."""
    assert len(os.listdir(os.path.join(directory, "objects"))) == 1
    assert len(os.listdir(os.path.join(directory, "objects.index"))) == 1
    store = FileChunkStore(os.path.join(directory, "objects"))
    on_disk = sum(
        os.path.getsize(os.path.join(store.root, name))
        for name in os.listdir(store.root)
    )
    assert on_disk == sum(store._size(digest) for digest in store.digests())


#: The order of a save's writes: chunk bytes and their index rows,
#: flushed; the four journals; the header; and, when the save dropped
#: chunks, the compaction of ``objects/`` — held chunks copied to a new
#: segment, its index, the rename that publishes them, the old files.
WRITE_ORDER = re.compile(
    r"((segment index )+flush flush )?"
    r"(append_journal ){4}write_json_atomic "
    r"((segment )+flush index flush publish (unlink )+)?"
)


def commit_model(repo, workload, version: int):
    return repo.commit(
        workload.name,
        {"model": workload.model_version(version)},
        message=f"model v{version}",
    )[0]


def garbage(repo) -> None:
    """Content no commit references: a blob, its recipe and chunks."""
    repo.objects.put(b"dead" * 5000)


def metadata_files(directory) -> dict[str, bytes]:
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in os.listdir(directory)
        if os.path.isfile(os.path.join(directory, name))
    }


def metadata_bytes_written(before: dict, after: dict) -> int:
    """Bytes a save had to write to turn ``before`` into ``after``, by
    content alone: a file that grew at its end cost its new tail, any
    other changed file cost its whole length."""
    written = 0
    for name, content in after.items():
        old = before.get(name)
        if old is not None and content.startswith(old):
            written += len(content) - len(old)
        elif content != old:
            written += len(content)
    return written


# -------------------------------------------------------------------- tests
class TestSaveCostIsTheDelta:
    def test_metadata_written_by_the_kth_push_does_not_grow_with_k(
        self, tmp_path, workload
    ):
        directory = str(tmp_path / "served")
        local = build_workload_repo(workload, commits=1)
        MLCask(metric=local.metric, seed=local.seed).save_dir(directory)
        server = RepositoryServer(
            MLCask.load_dir(directory), on_change=lambda r: r.save_dir(directory)
        )
        remote = local.add_remote("origin", LocalTransport(server))
        remote.push(workload.name)

        per_push = []
        for version in range(2, 9):  # one commit, one new model, every time
            commit_model(local, workload, version)
            before = metadata_files(directory)
            remote.push(workload.name)
            per_push.append(metadata_bytes_written(before, metadata_files(directory)))
        total = sum(len(content) for content in metadata_files(directory).values())
        # same-sized pushes write same-sized deltas (float digits wobble)...
        assert max(per_push) <= 1.25 * min(per_push)
        # ...far below what the repository holds by then
        assert per_push[-1] * 4 < total

        # N incremental saves reload as the live repository, and as one save
        live = snapshot(server.repo)
        assert snapshot(MLCask.load_dir(directory)) == live
        server.repo.save_dir(tmp_path / "once")
        once = MLCask.load_dir(tmp_path / "once")
        assert snapshot(once) == live
        assert committed_rows(tmp_path / "once") == committed_rows(directory)
        assert sorted(once.objects.chunks.digests()) == sorted(
            server.repo.objects.chunks.digests()
        )


    def test_system_calls_of_the_kth_save_do_not_grow_with_k(
        self, tmp_path, workload, syscalls
    ):
        """A save used to ``stat`` every chunk the repository holds and
        list ``objects/``; now it pays per chunk it *adds* — two appends
        and an ``lseek`` each — and a fixed price for the rest."""
        directory = str(tmp_path / "repo")
        repo = build_workload_repo(workload, commits=1)
        repo.save_dir(directory)
        fixed, held = [], []
        for version in range(2, 10):  # one commit, one new model, every time
            before = len(repo.objects.chunks)
            commit_model(repo, workload, version)
            new = len(repo.objects.chunks) - before
            assert new > 0
            del syscalls[:]
            repo.save_dir(directory)
            assert syscalls.count("write") == 2 * new
            assert syscalls.count("lseek") == new
            fixed.append(len(syscalls) - 3 * new)
            held.append(len(repo.objects.chunks))
        assert held[-1] > 1.5 * held[0]  # the history did grow...
        assert len(set(fixed)) == 1  # ...the save's fixed price did not
        assert snapshot(MLCask.load_dir(directory)) == snapshot(repo)


class TestCrashPoints:
    """Each scenario is one operation on a repository directory; it is
    cut before every metadata write it makes, in turn."""

    @pytest.fixture
    def base(self, tmp_path, workload):
        """A directory saved twice (so the scenarios append), holding
        unreferenced content for the sweeps to find."""
        directory = str(tmp_path / "base")
        repo = build_workload_repo(workload, commits=1)
        repo.save_dir(directory)
        commit_model(repo, workload, 2)
        garbage(repo)
        repo.save_dir(directory)
        return directory, repo.registry

    def commit_then_save(self, directory, registry, workload):
        repo = MLCask.load_dir(directory, registry=registry)
        commit_model(repo, workload, 3)
        repo.save_dir(directory)

    def push_into_served_directory(self, directory, registry, workload):
        local = MLCask.load_dir(directory, registry=registry)
        commit_model(local, workload, 3)
        server = RepositoryServer(
            MLCask.load_dir(directory), on_change=lambda r: r.save_dir(directory)
        )
        local.add_remote("origin", LocalTransport(server)).push(workload.name)

    def gc_the_directory(self, directory, registry, workload):
        gc_repository_dir(directory)

    def gc_then_save(self, directory, registry, workload):
        repo = MLCask.load_dir(directory, registry=registry)
        assert repo.gc().swept_chunks > 0
        repo.save_dir(directory)

    @pytest.mark.parametrize(
        "scenario",
        ["commit_then_save", "push_into_served_directory", "gc_the_directory", "gc_then_save"],
    )
    def test_a_cut_at_any_write_leaves_the_previous_state_and_a_retry_converges(
        self, tmp_path, workload, base, monkeypatch, scenario
    ):
        directory, registry = base
        run = getattr(self, scenario)
        previous = snapshot(MLCask.load_dir(directory))

        reference_dir = str(tmp_path / "reference")
        shutil.copytree(directory, reference_dir)
        run(reference_dir, registry, workload)
        reference = untimed(snapshot(MLCask.load_dir(reference_dir)))
        assert reference != untimed(previous)

        for cut in itertools.count():
            cut_dir = str(tmp_path / f"cut-{cut}")
            shutil.copytree(directory, cut_dir)
            with monkeypatch.context() as patch:
                log = die_before_write(patch, cut)
                try:
                    run(cut_dir, registry, workload)
                except (Crash, MLCaskError):
                    pass  # the writer is gone
                else:
                    break  # every write of the operation went through
            # short of the header nothing happened, chunk bytes included;
            # past it (a sweep giving bytes back) everything did
            reloaded = MLCask.load_dir(cut_dir)
            if "write_json_atomic" in log:
                assert untimed(snapshot(reloaded)) == reference
            else:
                assert snapshot(reloaded) == previous
            assert_every_blob_reassembles(reloaded)

            if "write_json_atomic" in log:
                gc_repository_dir(cut_dir)  # any next sweep finishes the job
            else:
                run(cut_dir, registry, workload)  # the retry
            after = MLCask.load_dir(cut_dir)
            assert untimed(snapshot(after)) == reference
            assert_every_blob_reassembles(after)
            # nothing of the dead writer's outlives the retry
            generation = json.loads(metadata_files(cut_dir)["state.json"])["generation"]
            assert all(
                name == "state.json" or f".{generation}." in name
                for name in metadata_files(cut_dir)
            )
            if scenario.startswith("gc"):
                assert_objects_are_tidy(cut_dir)
        # died before each write of the operation once, and they come in
        # the one order that keeps every committed name backed by bytes
        assert WRITE_ORDER.fullmatch("".join(f"{name} " for name in log))
        assert ("publish" in log) == scenario.startswith("gc")
        assert ("segment" in log[: log.index("append_journal")]) == (
            not scenario.startswith("gc")
        )
        assert cut == len(log)

    def test_dead_chunk_files_go_only_after_the_header_is_committed(
        self, workload, base, monkeypatch
    ):
        directory, _ = base
        objects = os.path.join(directory, "objects")
        chunks = set(FileChunkStore(objects).digests())
        segment = open(os.path.join(objects, "segment.0"), "rb").read()
        with monkeypatch.context() as patch:
            die_before_write(patch, 4)  # four journals written, no header
            with pytest.raises(Crash):
                gc_repository_dir(directory)
        assert set(FileChunkStore(objects).digests()) == chunks
        assert open(os.path.join(objects, "segment.0"), "rb").read() == segment
        report, _ = gc_repository_dir(directory)
        assert report.swept_chunks > 0
        assert len(FileChunkStore(objects).digests()) == len(chunks) - report.swept_chunks
        assert os.listdir(objects) == ["segment.1"]
        assert os.path.getsize(os.path.join(objects, "segment.1")) == (
            len(segment) - report.swept_bytes
        )


    def test_a_save_killed_between_its_chunks_and_its_journals(self, tmp_path):
        """CI's killed-save smoke, held here too: a real ``kill -9`` (no
        Python unwinding) once the new chunks and their rows are in
        ``objects/`` and nothing else is."""
        import io
        import signal
        import subprocess
        import sys

        import repro
        from repro.cli import main

        directory = str(tmp_path / "d")
        out = io.StringIO()
        assert main(
            ["init", directory, "--workload", "readmission", "--scale", "0.3"], out=out
        ) == 0
        saved = snapshot(MLCask.load_dir(directory))
        segment = os.path.join(directory, "objects", "segment.0")
        size = os.path.getsize(segment)
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        done = subprocess.run(
            [sys.executable, os.path.join(here, "smoke_killed_save.py"), directory],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == -signal.SIGKILL, done.stderr
        landed = os.path.getsize(segment) - size
        assert landed > 0  # the chunks did reach objects/
        reloaded = MLCask.load_dir(directory)
        assert snapshot(reloaded) == saved
        assert_every_blob_reassembles(reloaded)
        report, _ = gc_repository_dir(directory)  # what it left is swept
        assert report.swept_bytes == landed
        assert_objects_are_tidy(directory)


class TestStaleHandle:
    def test_a_handle_whose_directory_moved_on_compacts_with_its_own_state(
        self, tmp_path, workload
    ):
        directory = tmp_path / "shared"
        seed = build_workload_repo(workload, commits=1)
        seed.save_dir(directory)
        registry = seed.registry
        ana = MLCask.load_dir(directory, registry=registry)
        ben = MLCask.load_dir(directory, registry=registry)
        theirs = commit_model(ben, workload, 2)
        ben.save_dir(directory)  # appends: the header is the one ben read
        assert json.loads((directory / "state.json").read_text())["generation"] == 0

        mine = commit_model(ana, workload, 3)
        ana.save_dir(directory)  # last writer wins, by compaction
        assert json.loads((directory / "state.json").read_text())["generation"] == 1
        assert sorted(os.listdir(directory)) == sorted(
            ["state.json", "objects", "objects.index"]
            + [f"{n}.1.jsonl" for n in ("commits", "recipes", "checkpoints", "lineage")]
        )
        reloaded = MLCask.load_dir(directory)
        assert snapshot(reloaded) == snapshot(ana)
        assert mine.commit_id in reloaded.graph
        assert theirs.commit_id not in reloaded.graph
        assert_every_blob_reassembles(reloaded)

        # ben's handle is the stale one now, and ana's appends again
        ben.save_dir(directory)
        assert snapshot(MLCask.load_dir(directory)) == snapshot(ben)
        commit_model(ben, workload, 4)
        ben.save_dir(directory)
        assert json.loads((directory / "state.json").read_text())["generation"] == 2
        assert snapshot(MLCask.load_dir(directory)) == snapshot(ben)

    def test_saving_elsewhere_leaves_the_first_directory_committed(
        self, tmp_path, workload
    ):
        repo = build_workload_repo(workload, commits=1)
        repo.save_dir(tmp_path / "one")
        first = committed_rows(tmp_path / "one")
        commit_model(repo, workload, 2)
        repo.save_dir(tmp_path / "two")
        assert committed_rows(tmp_path / "one") == first
        assert snapshot(MLCask.load_dir(tmp_path / "two")) == snapshot(repo)
        # back to the first: its header is not the one the marks describe
        repo.save_dir(tmp_path / "one")
        assert snapshot(MLCask.load_dir(tmp_path / "one")) == snapshot(repo)


class TestAmendedRowsAreSavedAgain:
    def saved_with_unbound_rows(self, tmp_path, workload):
        repo = build_workload_repo(workload, commits=1)
        before = len(repo.lineage)
        repo.run_head(workload.name)  # warm re-run: reuse rows, no commit
        rows = range(before, len(repo.lineage))
        assert rows and not any(r.commit_id for r in repo.lineage.records(before))
        repo.save_dir(tmp_path / "repo")
        return repo, rows

    def test_annotate_commit_after_save(self, tmp_path, workload):
        repo, rows = self.saved_with_unbound_rows(tmp_path, workload)
        # (bound to the first commit: the loader folds equal rows, and
        # the head's own reuse rows already carry the head's id)
        first = repo.history(workload.name)[0]
        repo.lineage.annotate_commit(first.commit_id, first.branch, rows)
        repo.save_dir(tmp_path / "repo")
        reloaded = MLCask.load_dir(tmp_path / "repo")
        assert snapshot(reloaded) == snapshot(repo)
        assert all(r.commit_id for r in reloaded.lineage.records())

    def test_mark_collected_and_prune_after_save(self, tmp_path, workload):
        repo, _ = self.saved_with_unbound_rows(tmp_path, workload)
        assert repo.lineage.mark_collected(set()) == len(repo.lineage)
        assert repo.checkpoints.prune(set()) > 0
        repo.save_dir(tmp_path / "repo")
        reloaded = MLCask.load_dir(tmp_path / "repo")
        assert snapshot(reloaded) == snapshot(repo)
        assert reloaded.lineage.collected_count() == len(repo.lineage)
        assert len(reloaded.checkpoints) == 0

    def test_rows_amended_before_their_first_save_are_appended(
        self, tmp_path, workload
    ):
        """``commit`` back-fills the rows its own run appended: nothing a
        journal holds changed, so the save stays an append."""
        repo = build_workload_repo(workload, commits=1)
        repo.save_dir(tmp_path / "repo")
        commit_model(repo, workload, 2)
        repo.save_dir(tmp_path / "repo")
        assert json.loads((tmp_path / "repo" / "state.json").read_text())["generation"] == 0
        assert snapshot(MLCask.load_dir(tmp_path / "repo")) == snapshot(repo)


class TestPreJournalLayout:
    def test_an_old_directory_is_refused_not_loaded_as_empty(
        self, tmp_path, workload
    ):
        """A header from before the journals (the commits in it, no
        generation) names the format it is in; loading writes nothing."""
        repo = build_workload_repo(workload, commits=1)
        directory = tmp_path / "old"
        directory.mkdir()
        commits = [encode(c) for c in repo.graph.all_commits()]
        (directory / "state.json").write_text(
            json.dumps({**repository_header(repo), "commits": commits})
        )
        before = metadata_files(directory)
        with pytest.raises(RepositoryError, match="pre-journal"):
            MLCask.load_dir(directory, registry=repo.registry)
        with pytest.raises(RepositoryError, match="pre-journal"):
            gc_repository_dir(directory)
        assert metadata_files(directory) == before
