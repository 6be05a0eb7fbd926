"""Hub metadata persistence: append-only journals behind one atomic header.

What is held here: a repository persisted push by push reloads as the
repository it was (and as one persisted in a single push); a writer that
dies at any write of a persist or of a GC compaction — the chunk store's
segment and index appends, its flush and every step of its compaction
included — leaves the previous committed state (or, past the header, the
new one), which a restarted hub loads, serves and builds on; a diverged push is
refused before anything of it imports; a hosted repository keeps one
string per chunk digest; GC compacts, and gives
chunk bytes back only after its header; a directory in the pre-journal
layout stops the hub from starting; and a persist writes what the push
added, not what the repository holds.
"""

import itertools
import json
import os
import shutil

import pytest

import repro.core.persistence as persistence
from repro.core.checkpoint import CheckpointRecord
from repro.core.persistence import (
    commit_to_dict,
    recipe_to_dict,
    record_to_dict,
    repository_header,
)
from repro.errors import MLCaskError, PushRejectedError, RepositoryError, StorageError
from repro.hub import RepositoryHub
from repro.provenance.ledger import LineageRecord, lineage_record_to_dict
from repro.remote import clone_repository
from repro.remote.protocol import (
    decode_message,
    encode_message,
    raise_remote_error,
)
from repro.storage import FileChunkStore
from repro.storage.hashing import sha256_hex

from helpers import (
    Crash,
    build_workload_repo,
    bytes_under,
    die_before_write,
)

TENANT, REPO, TOKEN = "ana", "proj", "tok"
JOURNALS = ("commits", "recipes", "checkpoints", "lineage", "chunks")


# ------------------------------------------------------------------ helpers
def open_hub(root) -> RepositoryHub:
    hub = RepositoryHub(root)
    if not hub.authenticator.has_tenant(TENANT):
        hub.add_tenant(TENANT, tokens=[TOKEN])
    return hub


def push(hub, local, workload, name: str):
    remote = local.add_remote(name, hub.local_transport(TENANT, REPO, TOKEN))
    return remote.push(workload.name)


def commit_model(local, workload, version: int):
    return local.commit(
        workload.name,
        {"model": workload.model_version(version)},
        message=f"model v{version}",
    )[0]


def repo_dir(root) -> str:
    return os.path.join(root, "tenants", TENANT, REPO)


def snapshot(hub) -> dict:
    """Everything a hosted repository persists, in arrival order, plus
    the books the hub keeps about it."""
    hosted = hub._acquire(TENANT, REPO, create=False)
    try:
        repo = hosted.server.repo
        holdings = hosted.view.holdings()
        return {
            "header": repository_header(repo),
            "commits": [commit_to_dict(c) for c in repo.graph.arrivals()],
            "recipes": [recipe_to_dict(r) for r in repo.objects.recipes()],
            "records": [record_to_dict(r) for r in repo.checkpoints.records()],
            "lineage": [
                lineage_record_to_dict(r) for r in repo.lineage.records()
            ],
            "holdings": list(holdings.items()),
            "refcounts": {d: hub.backend.refcount(d) for d in holdings},
            "tenant_usage": hub.tenant_usage(TENANT),
            "physical_bytes": hub.backend.physical_bytes,
        }
    finally:
        hub._release(hosted)


def unordered(state: dict) -> dict:
    """A snapshot with arrival order taken out (two different push
    sequences reach the same content in different orders)."""
    return {
        key: sorted(json.dumps(row, sort_keys=True) for row in value)
        if isinstance(value, list)
        else value
        for key, value in state.items()
    }


def committed_journals(root) -> dict[str, bytes]:
    """What the header on disk commits, read without the hub's code:
    the first ``journals[name]`` bytes of each generation-``g`` file."""
    directory = repo_dir(root)
    with open(os.path.join(directory, "state.json")) as fh:
        header = json.load(fh)
    content = {}
    for name in JOURNALS:
        length = header["journals"][name]
        path = os.path.join(directory, f"{name}.{header['generation']}.jsonl")
        if length:
            with open(path, "rb") as fh:
                content[name] = fh.read()[:length]
            assert len(content[name]) == length
        else:
            content[name] = b""
    return content


def assert_books_match_journals(hub, root) -> None:
    """``physical_bytes`` and ``tenant_usage`` equal a recompute from
    the committed holdings journal (one tenant, one repo)."""
    rows = committed_journals(root)["chunks"].splitlines()
    held = sum(json.loads(row)[1] for row in rows)
    stats = hub.stats()
    assert stats["physical_bytes"] == held
    assert stats["tenant_usage"][TENANT] == held


def chunk_bytes_on_disk(root) -> int:
    return bytes_under(os.path.join(root, "chunks"))


def assert_chunk_store_is_a_valid_prefix(root) -> None:
    """Whatever a dead writer left, a reopened store lists only chunks
    that read back to their address."""
    store = FileChunkStore(os.path.join(root, "chunks"))
    for digest in store.digests():
        assert sha256_hex(store.get(digest)) == digest


def assert_every_holding_is_served(hub) -> None:
    """Every chunk the committed holdings name — unreferenced ones
    too — reads back through the repository's view."""
    hosted = hub._acquire(TENANT, REPO, create=False)
    try:
        for digest in hosted.view.digests():
            assert sha256_hex(hosted.view.get(digest)) == digest
    finally:
        hub._release(hosted)


def assert_chunk_store_is_tidy(root) -> None:
    """One generation, and not a byte under ``chunks/`` the books lack."""
    assert len(os.listdir(os.path.join(root, "chunks"))) == 1
    assert len(os.listdir(os.path.join(root, "chunks.index"))) == 1
    assert chunk_bytes_on_disk(root) == open_hub(root).stats()["physical_bytes"]


def assert_clone_verifies(hub, head: str, workload) -> None:
    clone = clone_repository(hub.local_transport(TENANT, REPO, TOKEN))
    assert clone.branches.head(workload.name, "master") == head
    blobs = {
        digest
        for commit in clone.graph.all_commits()
        for digest in commit.stage_outputs.values()
    }
    assert blobs
    for digest in blobs:
        assert sha256_hex(clone.objects.get(digest)) == digest


def push_garbage(hub, tag: bytes) -> dict:
    """Land content no commit references — a chunk, its recipe, a
    checkpoint record and a ledger row — through a ref-less push, which
    persists like any other. Returns the digests to look for."""
    blob = tag * 2000
    digest = sha256_hex(blob)
    record = CheckpointRecord(
        key=f"key-{digest[:8]}", component_id="dead.component",
        output_ref=digest, output_bytes=len(blob), run_seconds=0.0,
    )
    row = LineageRecord(
        checkpoint_key=record.key, stage="dead", pipeline="p",
        component_id="dead.component", component_fingerprint="f",
        component_version="0.0", params_digest="d", input_refs=(),
        output_ref=digest, seed=0, tenant=TENANT,
        via="executed",
    )
    meta = {
        "op": "push",
        "chunk_digests": [digest],
        "recipes": [{"blob": digest, "chunks": [digest], "size": len(blob)}],
        "records": [record_to_dict(record)],
        "lineage": [lineage_record_to_dict(row)],
        "refs": {},
    }
    transport = hub.local_transport(TENANT, REPO, TOKEN)
    answer, _ = decode_message(transport.call(encode_message(meta, [blob])))
    raise_remote_error(answer)
    return {"chunk": digest, "record": record.key}


# -------------------------------------------------------------------- tests
class TestEquivalence:
    def test_incremental_persists_reload_as_the_live_repo_and_as_one_persist(
        self, tmp_path, workload
    ):
        local = build_workload_repo(workload, commits=1)
        stepwise = open_hub(tmp_path / "stepwise")
        push(stepwise, local, workload, "s0")
        for version in (2, 3, 4):
            commit_model(local, workload, version)
            push(stepwise, local, workload, f"s{version}")
        live = snapshot(stepwise)

        reloaded = snapshot(open_hub(tmp_path / "stepwise"))
        assert reloaded == live  # order included

        once = open_hub(tmp_path / "once")
        push(once, local, workload, "once")  # the same history, one persist
        assert unordered(snapshot(open_hub(tmp_path / "once"))) == unordered(live)

    def test_eviction_persists_only_the_tail_and_reload_continues(
        self, tmp_path, workload
    ):
        hub = RepositoryHub(tmp_path / "hub", max_loaded_repos=1)
        hub.add_tenant(TENANT, tokens=[TOKEN])
        local = build_workload_repo(workload, commits=1)
        push(hub, local, workload, "first")
        before = snapshot(hub)
        hub.create_repo(TENANT, "other")  # evicts proj
        assert hub.loaded_repos() == [(TENANT, "other")]
        assert snapshot(hub) == before  # reloaded from the journals
        commit_model(local, workload, 2)
        push(hub, local, workload, "second")
        assert snapshot(open_hub(tmp_path / "hub")) == snapshot(hub)


class TestCrashPoints:
    @pytest.fixture
    def base(self, tmp_path, workload):
        """A hub root with two persisted pushes, and a local repository
        one commit ahead of it."""
        root = tmp_path / "base"
        local = build_workload_repo(workload, commits=1)
        hub = open_hub(root)
        push(hub, local, workload, "b0")
        commit_model(local, workload, 2)
        push(hub, local, workload, "b1")
        state = snapshot(hub)
        commit_model(local, workload, 3)
        return root, local, state

    def test_a_push_cut_at_any_write_leaves_the_previous_state(
        self, tmp_path, workload, base, monkeypatch
    ):
        root, local, previous = base
        head = local.branches.head(workload.name, "master")

        reference_root = tmp_path / "reference"
        shutil.copytree(root, reference_root)
        push(open_hub(reference_root), local, workload, "ref")
        reference = snapshot(open_hub(reference_root))
        assert reference["header"]["heads"][workload.name]["master"] == head

        for cut in itertools.count():
            cut_root = tmp_path / f"cut-{cut}"
            shutil.copytree(root, cut_root)
            with monkeypatch.context() as patch:
                log = die_before_write(patch, cut)
                try:
                    push(open_hub(cut_root), local, workload, f"cut{cut}")
                except MLCaskError:
                    pass  # the persist died; the hub process is gone
                else:
                    break  # every write of the persist went through
            assert log.count("write_json_atomic") == 0  # died short of the commit

            assert_chunk_store_is_a_valid_prefix(cut_root)
            restarted = open_hub(cut_root)
            assert snapshot(restarted) == previous
            assert_books_match_journals(restarted, cut_root)
            assert_every_holding_is_served(restarted)
            assert_clone_verifies(
                restarted, previous["header"]["heads"][workload.name]["master"],
                workload,
            )
            # the retry adopts the chunks the dead push landed, cuts off
            # the one it tore, and appends the rest
            push(restarted, local, workload, f"retry{cut}")
            assert snapshot(restarted) == reference
            assert committed_journals(cut_root) == committed_journals(reference_root)
            assert_chunk_store_is_tidy(cut_root)
            after = open_hub(cut_root)
            assert snapshot(after) == reference
            assert_books_match_journals(after, cut_root)
            assert_clone_verifies(after, head, workload)
        # chunk bytes, then their index rows, both flushed; then one
        # append per journal (the push added rows to all five); then the
        # header: died before each of these writes once
        new_chunks = len(reference["holdings"]) - len(previous["holdings"])
        assert new_chunks > 0
        assert log == (
            ["segment", "index"] * new_chunks
            + ["flush", "flush"]
            + ["append_journal"] * 5
            + ["write_json_atomic"]
        )
        assert cut == len(log)

    def test_a_header_replace_that_fails_publishes_nothing(
        self, tmp_path, workload, base, monkeypatch
    ):
        root, local, previous = base
        hub = open_hub(root)
        with monkeypatch.context() as patch:
            def refuse(src, dst):
                raise OSError("rename refused")

            patch.setattr("repro.storage.chunk_store.os.replace", refuse)
            with pytest.raises(MLCaskError):
                push(hub, local, workload, "doomed")
        assert not [n for n in os.listdir(repo_dir(root)) if n.endswith(".tmp")]
        restarted = open_hub(root)
        assert snapshot(restarted) == previous
        # the same hub object recovers too: its cursor never moved, so
        # its next persist carries what the refused one held
        commit_model(local, workload, 4)
        push(hub, local, workload, "again")
        assert snapshot(open_hub(root)) == snapshot(hub)
        assert len(snapshot(hub)["commits"]) == len(previous["commits"]) + 2

    @pytest.mark.parametrize(
        "tail",
        [b'{"torn": "ro', b"\x00\xffgarbage\n" * 3, b'{"whole": "row"}\n'],
        ids=["torn-line", "garbage", "uncommitted-row"],
    )
    def test_bytes_past_the_committed_length_are_never_read(
        self, workload, base, tail
    ):
        root, local, previous = base
        before = committed_journals(root)
        for name in JOURNALS:
            with open(os.path.join(repo_dir(root), f"{name}.0.jsonl"), "ab") as fh:
                fh.write(tail)
        restarted = open_hub(root)
        assert snapshot(restarted) == previous
        assert_books_match_journals(restarted, root)
        push(restarted, local, workload, "next")  # cuts the tail off, appends
        after = committed_journals(root)
        for name in JOURNALS:
            assert after[name].startswith(before[name])
            assert tail not in after[name]
            path = os.path.join(repo_dir(root), f"{name}.0.jsonl")
            assert os.path.getsize(path) == len(after[name])
        assert snapshot(open_hub(root)) == snapshot(restarted)
        assert_clone_verifies(
            open_hub(root), local.branches.head(workload.name, "master"), workload
        )

    def test_a_compaction_cut_at_any_write_leaves_the_previous_state(
        self, tmp_path, workload, base, monkeypatch
    ):
        root, local, _ = base
        push_garbage(open_hub(root), b"dead")
        previous = snapshot(open_hub(root))
        live_head = previous["header"]["heads"][workload.name]["master"]

        reference_root = tmp_path / "reference"
        shutil.copytree(root, reference_root)
        open_hub(reference_root).gc_repo(TENANT, REPO)
        reference = snapshot(open_hub(reference_root))
        assert len(reference["holdings"]) < len(previous["holdings"])

        for cut in itertools.count():
            cut_root = tmp_path / f"cut-{cut}"
            shutil.copytree(root, cut_root)
            with monkeypatch.context() as patch:
                log = die_before_write(patch, cut)
                try:
                    open_hub(cut_root).gc_repo(TENANT, REPO)
                except Crash:
                    pass
                else:
                    break
            assert_chunk_store_is_a_valid_prefix(cut_root)
            restarted = open_hub(cut_root)
            # short of the header the sweep never happened, and no byte
            # the old header names is gone; past it, it is done but for
            # giving the bytes back
            committed = "write_json_atomic" in log
            assert snapshot(restarted) == (reference if committed else previous)
            assert_books_match_journals(restarted, cut_root)
            assert_every_holding_is_served(restarted)
            assert_clone_verifies(restarted, live_head, workload)
            restarted.gc_repo(TENANT, REPO)  # the retried sweep
            assert committed_journals(cut_root) == committed_journals(reference_root)
            assert_chunk_store_is_tidy(cut_root)
            after = open_hub(cut_root)
            assert snapshot(after) == reference
            assert_books_match_journals(after, cut_root)
            assert_every_holding_is_served(after)
            assert_clone_verifies(after, live_head, workload)
            # what the dead compaction wrote is gone with the old generation
            # (a sweep retried past its header compacts the journals anew)
            generation = ".2." if committed else ".1."
            assert all(
                generation in name or name == "state.json"
                for name in os.listdir(repo_dir(cut_root))
            )
        # the five journals and the header, then the chunk store's
        # compaction: the held chunks copied to a new segment (one run:
        # the dead chunk was the last to arrive), its index, the rename
        # that publishes them, the old generation's two files
        assert log == (
            ["append_journal"] * 5
            + ["write_json_atomic"]
            + ["segment", "flush", "index", "flush", "publish", "unlink", "unlink"]
        )
        assert cut == len(log)  # died before each of these writes once

    def test_a_compaction_that_dies_after_its_header_is_committed(
        self, workload, base, monkeypatch
    ):
        root, local, _ = base
        push_garbage(open_hub(root), b"dead")
        with monkeypatch.context() as patch:
            def die(repo_dir, generation):
                raise Crash("before the old generation is removed")

            patch.setattr(persistence, "_sweep_repo_dir", die)
            with pytest.raises(Crash):
                open_hub(root).gc_repo(TENANT, REPO)
        names = os.listdir(repo_dir(root))
        assert "chunks.0.jsonl" in names and "chunks.1.jsonl" in names
        restarted = open_hub(root)
        assert restarted.tenant_usage(TENANT) > 0
        assert_books_match_journals(restarted, root)  # generation 1 is what counts
        # the header went in, the chunk store's compaction never ran: the
        # dead chunk's bytes are still there for the next one to reclaim
        assert chunk_bytes_on_disk(root) > restarted.stats()["physical_bytes"]
        assert_clone_verifies(
            restarted, local.graph.get(
                local.branches.head(workload.name, "master")
            ).parents[0], workload,
        )
        restarted.gc_repo(TENANT, REPO)  # the next compaction sweeps the strays
        assert sorted(os.listdir(repo_dir(root))) == sorted(
            ["state.json"] + [f"{name}.2.jsonl" for name in JOURNALS]
        )
        assert_chunk_store_is_tidy(root)

    def test_a_compaction_that_fails_in_a_hub_that_lives_on_is_redone(
        self, tmp_path, workload, base, monkeypatch
    ):
        """The disk fills up mid-GC and the hub keeps serving: its stores
        are swept, the journals are not. The next push must compact, not
        append from row counts the sweep invalidated."""
        root, local, _ = base
        dead = push_garbage(open_hub(root), b"dead")
        head = local.branches.head(workload.name, "master")
        for cut in range(6):  # five journals, then the header
            cut_root = tmp_path / f"cut-{cut}"
            shutil.copytree(root, cut_root)
            hub = open_hub(cut_root)
            with monkeypatch.context() as patch:
                die_before_write(patch, cut)
                with pytest.raises(Crash):
                    hub.gc_repo(TENANT, REPO)
            push(hub, local, workload, f"after{cut}")  # same hub, no restart
            journals = committed_journals(cut_root)
            assert dead["chunk"].encode() not in journals["chunks"]
            assert dead["record"].encode() not in journals["checkpoints"]
            restarted = open_hub(cut_root)
            assert snapshot(restarted) == snapshot(hub)
            assert_books_match_journals(restarted, cut_root)
            assert_clone_verifies(restarted, head, workload)
            assert all(
                ".1." in name or name == "state.json"
                for name in os.listdir(repo_dir(cut_root))
            )


class TestRejectedPush:
    def test_a_diverged_push_is_refused_before_anything_imports(
        self, tmp_path, workload
    ):
        root = tmp_path / "hub"
        hub = open_hub(root)
        ana = build_workload_repo(workload, commits=1)
        push(hub, ana, workload, "a0")
        ben = clone_repository(
            hub.local_transport(TENANT, REPO, TOKEN), registry=ana.registry
        )
        commit_model(ana, workload, 2)
        push(hub, ana, workload, "a1")
        orphan = commit_model(ben, workload, 3)
        # Fetched, ben holds the hub's head, so its client ships the pack
        # and the hub's own gate is what refuses it.
        ben.remote("origin").fetch()
        before = snapshot(hub)
        on_disk = bytes_under(root / "chunks"), bytes_under(root / "chunks.index")
        with pytest.raises(PushRejectedError, match="non-fast-forward"):
            ben.remote("origin").push(workload.name)
        # no chunk, recipe, record, lineage row or commit landed
        assert snapshot(hub) == before
        assert (
            bytes_under(root / "chunks"), bytes_under(root / "chunks.index")
        ) == on_disk

        commit_model(ana, workload, 4)
        push(hub, ana, workload, "a2")
        live = snapshot(hub)
        assert orphan.commit_id not in [c["commit_id"] for c in live["commits"]]
        assert orphan.commit_id not in committed_journals(root)["commits"].decode()
        assert snapshot(open_hub(root)) == live


def assert_one_string_per_digest(hub) -> None:
    """Every chunk digest the hosted repository keeps — in its recipes,
    its holdings, the backend's refcounts and the store's index — is
    one ``str`` object: each recipe's digest *is* its holding's key."""
    hosted = hub._acquire(TENANT, REPO, create=False)
    try:
        holdings = hosted.view.holdings()
        key_of = {digest: digest for digest in holdings}
        named = [
            digest
            for recipe in hosted.server.repo.objects.recipes()
            for digest in recipe.chunk_digests
        ]
        assert named and all(digest is key_of[digest] for digest in named)
        kept = (
            named + list(holdings) + list(hub.backend._refcounts)
            + hub.backend.store.digests()
        )
        assert len({id(digest) for digest in kept}) == len(set(kept))
    finally:
        hub._release(hosted)


class TestDigestIdentity:
    def test_a_hosted_repository_keeps_one_string_per_chunk_digest(
        self, tmp_path, workload
    ):
        root = tmp_path / "hub"
        hub = open_hub(root)
        local = build_workload_repo(workload, commits=1)
        push(hub, local, workload, "first")
        for version in (2, 3):
            commit_model(local, workload, version)
            push(hub, local, workload, f"v{version}")
        assert_one_string_per_digest(hub)
        assert_one_string_per_digest(open_hub(root))  # a cold reload


class TestCompaction:
    def test_gc_shrinks_the_journals_and_flags_survive_reload(
        self, tmp_path, workload
    ):
        root = tmp_path / "hub"
        hub = open_hub(root)
        local = build_workload_repo(workload, commits=1)
        push(hub, local, workload, "first")
        dead = push_garbage(hub, b"dead")
        before = committed_journals(root)
        assert dead["chunk"].encode() in before["chunks"]
        assert dead["record"].encode() in before["checkpoints"]
        usage = hub.tenant_usage(TENANT)

        report = hub.gc_repo(TENANT, REPO)
        assert report.swept_chunks == 1
        after = committed_journals(root)
        for name in ("chunks", "recipes", "checkpoints"):
            assert len(after[name]) < len(before[name])
        assert dead["chunk"].encode() not in after["chunks"]
        assert dead["chunk"].encode() not in after["recipes"]
        assert dead["record"].encode() not in after["checkpoints"]
        assert after["commits"] == before["commits"]
        # ledger rows are kept and flagged, never dropped
        rows = [json.loads(line) for line in after["lineage"].splitlines()]
        assert len(rows) == len(before["lineage"].splitlines())
        assert [r["collected"] for r in rows if r["stage"] == "dead"] == [True]
        # the journals moved to the next generation; the old files are gone
        assert sorted(os.listdir(repo_dir(root))) == sorted(
            ["state.json"] + [f"{name}.1.jsonl" for name in JOURNALS]
        )

        restarted = open_hub(root)
        assert snapshot(restarted) == snapshot(hub)
        assert restarted.tenant_usage(TENANT) < usage
        hosted = restarted._acquire(TENANT, REPO, create=False)
        assert hosted.server.repo.lineage.collected_count() == 1
        restarted._release(hosted)
        # appends continue on the compacted generation
        commit_model(local, workload, 2)
        push(restarted, local, workload, "second")
        assert snapshot(open_hub(root)) == snapshot(restarted)

    def test_gc_removes_only_the_files_it_owns(self, tmp_path, workload):
        root = tmp_path / "hub"
        hub = open_hub(root)
        push(hub, build_workload_repo(workload, commits=1), workload, "first")
        strangers = [
            "notes.json", "audit.jsonl", "upload.tmp", "commits.old.jsonl", "recipes.json"
        ]
        stale = ["state.json.123-456.tmp", "chunks.7.jsonl"]
        for name in strangers + stale:
            with open(os.path.join(repo_dir(root), name), "w") as fh:
                fh.write("{}")
        hub.gc_repo(TENANT, REPO)
        assert sorted(os.listdir(repo_dir(root))) == sorted(
            ["state.json"] + [f"{name}.1.jsonl" for name in JOURNALS] + strangers
        )


class TestCursorsFollowTheStores:
    def test_a_journal_row_the_loader_folds_away_does_not_shift_the_cursor(
        self, tmp_path, workload
    ):
        root = tmp_path / "hub"
        local = build_workload_repo(workload, commits=1)
        push(open_hub(root), local, workload, "first")
        # commit the last ledger row a second time: the ledger keeps one
        header_path = os.path.join(repo_dir(root), "state.json")
        with open(header_path) as fh:
            header = json.load(fh)
        journal = os.path.join(repo_dir(root), "lineage.0.jsonl")
        with open(journal, "rb") as fh:
            last = fh.read().splitlines(keepends=True)[-1]
        with open(journal, "ab") as fh:
            fh.write(last)
        header["journals"]["lineage"] += len(last)
        with open(header_path, "w") as fh:
            json.dump(header, fh)

        hub = open_hub(root)
        commit_model(local, workload, 2)
        push(hub, local, workload, "second")
        live = snapshot(hub)
        # every new row was journaled, after the one doubled row
        on_disk = committed_journals(root)["lineage"].splitlines()
        assert len(on_disk) == len(live["lineage"]) + 1
        assert snapshot(open_hub(root)) == live


class TestDurability:
    def test_journals_reach_the_disk_before_the_header_that_names_them(
        self, tmp_path, workload, monkeypatch
    ):
        root = tmp_path / "hub"
        hub = open_hub(root)
        local = build_workload_repo(workload, commits=1)
        push(hub, local, workload, "first")
        commit_model(local, workload, 2)

        events = []
        real_fsync, real_fdatasync, real_replace = os.fsync, os.fdatasync, os.replace

        def flushed(kind, real):
            def flush(fd):
                target = os.readlink(f"/proc/self/fd/{fd}")
                if target.startswith(str(root)):
                    events.append((kind, os.path.basename(target)))
                return real(fd)

            return flush

        def replace(src, dst):
            if dst.startswith(repo_dir(root)):
                events.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", flushed("fsync", real_fsync))
        monkeypatch.setattr(os, "fdatasync", flushed("fdatasync", real_fdatasync))
        monkeypatch.setattr(os, "replace", replace)
        push(hub, local, workload, "second")
        # the chunk store first, segment then index: the two flushes a
        # push pays on top of the metadata's
        assert events[:2] == [("fdatasync", "segment.0"), ("fdatasync", "index.0")]
        assert [kind for kind, _ in events].count("fdatasync") == 2
        events = events[2:]
        flushed = [name for kind, name in events[:5] if kind == "fsync"]
        assert sorted(flushed) == sorted(f"{name}.0.jsonl" for name in JOURNALS)
        kinds = [kind for kind, _ in events[5:]]
        assert kinds == ["fsync", "replace", "fsync"]  # temp, rename, directory
        assert events[5][1].endswith(".tmp")
        assert events[6:] == [("replace", "state.json"), ("fsync", REPO)]


    def test_a_tenant_is_on_disk_when_add_tenant_returns(self, tmp_path, monkeypatch):
        root = tmp_path / "hub"
        hub = open_hub(root)
        synced, real_fsync = [], os.fsync

        def fsync(fd):
            synced.append(os.readlink(f"/proc/self/fd/{fd}"))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        hub.add_tenant("ben", tokens=["tok-ben"], quota_bytes=1 << 20)
        config = os.path.realpath(hub._config_path())
        # the temp file before its rename, then the directory after it
        assert len(synced) == 2
        assert synced[0].startswith(config + ".") and synced[0].endswith(".tmp")
        assert synced[1] == os.path.dirname(config)


class TestOlderLayouts:
    def test_a_hub_refuses_to_start_on_a_layout_it_no_longer_reads(
        self, tmp_path, workload
    ):
        """A hosted repository from before the journals, or a chunk root
        of one file per chunk, stops the hub at startup instead of
        serving an empty repository."""
        root = tmp_path / "hub"
        push(open_hub(root), build_workload_repo(workload), workload, "first")
        header_path = os.path.join(repo_dir(root), "state.json")
        with open(header_path) as fh:
            header = json.load(fh)
        old = {k: v for k, v in header.items() if k not in ("generation", "journals")}
        with open(header_path, "w") as fh:
            json.dump({**old, "commits": []}, fh)
        with pytest.raises(RepositoryError, match="pre-journal"):
            open_hub(root)

        with open(header_path, "w") as fh:
            json.dump(header, fh)
        (root / "chunks" / "ab").mkdir()
        with pytest.raises(StorageError, match="one-file-per-chunk"):
            open_hub(root)


class TestPersistCostIsTheDelta:
    def test_bytes_written_by_the_kth_push_do_not_grow_with_k(
        self, tmp_path, workload, monkeypatch
    ):
        written = []  # bytes per metadata write, across the current push

        def counting_append(path, committed, rows, original=persistence.append_journal):
            length = original(path, committed, rows)
            written.append(length - committed)
            return length

        def counting_header(path, payload, original=persistence.write_json_atomic, **kw):
            original(path, payload, **kw)
            written.append(os.path.getsize(path))

        monkeypatch.setattr(persistence, "append_journal", counting_append)
        monkeypatch.setattr(persistence, "write_json_atomic", counting_header)

        hub = open_hub(tmp_path / "hub")
        local = build_workload_repo(workload, commits=1)
        push(hub, local, workload, "p1")
        per_push = []
        for version in range(2, 9):  # one commit, one new model, every time
            commit_model(local, workload, version)
            written.clear()
            push(hub, local, workload, f"p{version}")
            per_push.append(sum(written))
        total = sum(len(j) for j in committed_journals(tmp_path / "hub").values())
        # same-sized pushes write same-sized deltas (float digits wobble)...
        assert max(per_push) <= 1.25 * min(per_push)
        # ...far below what the repository holds by then
        assert per_push[-1] * 4 < total
