"""``FileChunkStore``'s segment and index: what survives what.

Held here, on the store alone (the hub and the working copy run the same
store under their own commit points in
``tests/hub/test_journal_persistence.py`` and
``tests/core/test_repository_dir.py``): a writer cut before any append,
flush or compaction step leaves a store that reopens as a valid prefix
and converges when the work is retried; random put / discard / compact /
reopen sequences agree with a dict; opening a store writes nothing;
handles that share a root never write a row that reads back wrong;
flushed chunks are there for a fresh process; writers and discarders of
neighbouring digests do not trip over each other; and a root in the
one-file-per-chunk layout is refused, not read as empty.
"""

import itertools
import os
import shutil
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ChunkNotFoundError, StorageError
from repro.hub import SharedChunkBackend, TenantChunkStore
from repro.storage import FileChunkStore
from repro.storage.hashing import sha256_hex

from helpers import Crash, bytes_under, die_before_write


def payload(i: int) -> bytes:
    return b"chunk-%d-" % i * (50 + i % 7)


def assert_valid_prefix(root, of: dict[str, bytes]) -> FileChunkStore:
    """A store opened on ``root`` lists only chunks of ``of``, each reads
    back to its address, and no row names bytes the segment lacks."""
    store = FileChunkStore(root)
    for digest in store.digests():
        data = store.get(digest)
        assert sha256_hex(data) == digest and of[digest] == data
    generation = store._gen.number
    if generation is not None:
        segment = os.path.getsize(store._segment_path(generation))
        assert all(
            (entry >> 32) + (entry & 0xFFFFFFFF) <= segment
            for entry in store._gen.entries.values()
        )
    return store


def tree(root) -> dict:
    """Every file and directory under ``root``'s parent, with content
    and modification time: what "changed no byte" is held against."""
    found = {}
    for directory, names, files in os.walk(os.path.dirname(os.fspath(root))):
        for name in names + files:
            path = os.path.join(directory, name)
            content = open(path, "rb").read() if name in files else None
            found[path] = (content, os.stat(path).st_mtime_ns)
    return found


# ------------------------------------------------------------- crash points
class TestCrashPoints:
    def test_a_writer_cut_at_any_step_leaves_a_valid_prefix_and_a_retry_converges(
        self, tmp_path, monkeypatch
    ):
        """One session — six puts, a flush, two discards, a compaction,
        two more puts, a flush — cut before each of its writes in turn."""
        chunks = {sha256_hex(payload(i)): payload(i) for i in range(8)}
        digests = list(chunks)
        base = tmp_path / "base" / "c"
        seeded = FileChunkStore(base)
        seeded.put(b"held from before")
        chunks[sha256_hex(b"held from before")] = b"held from before"
        seeded.flush()
        del seeded

        def session(root):
            store = FileChunkStore(root)
            for digest in digests[:6]:
                store.import_chunk(digest, chunks[digest])
            store.flush()
            for digest in digests[1:3]:
                store.discard(digest)
            store.compact()
            for digest in digests[6:]:
                store.import_chunk(digest, chunks[digest])
            store.flush()
            return store

        kept = set(chunks) - set(digests[1:3])
        for cut in itertools.count():
            root = tmp_path / f"cut-{cut}" / "c"
            shutil.copytree(tmp_path / "base", tmp_path / f"cut-{cut}")
            with monkeypatch.context() as patch:
                log = die_before_write(patch, cut)
                try:
                    session(root)
                except Crash:
                    pass
                else:
                    break
            reopened = assert_valid_prefix(root, chunks)
            assert sha256_hex(b"held from before") in reopened.digests()
            if "publish" in log:  # the discards are committed
                assert not set(digests[1:3]) & set(reopened.digests())
            # the retry: same work, whatever the dead writer left
            store = session(root)
            assert set(store.digests()) == kept
            after = assert_valid_prefix(root, chunks)
            assert set(after.digests()) == kept
            # torn tails cut off, dead generations gone, no byte unbooked
            assert os.listdir(root) == [f"segment.{after._gen.number}"]
            assert os.listdir(str(root) + ".index") == [f"index.{after._gen.number}"]
            assert bytes_under(root) == sum(len(chunks[d]) for d in kept)
        assert log == (
            ["segment", "index"] * 6
            + ["flush", "flush"]
            # the compaction: two runs of held chunks around the dropped
            # pair, its index, the rename, the old generation's two files
            + ["segment", "segment", "flush", "index", "flush", "publish"]
            + ["unlink", "unlink"]
            + ["segment", "index"] * 2
            + ["flush", "flush"]
        )
        assert cut == len(log)

    def test_rows_that_name_bytes_the_segment_lacks_are_dropped_then_cut_off(
        self, tmp_path
    ):
        """A power loss kept the index rows and lost the end of the
        segment: nothing is listed that cannot be read, and the next
        append does not leave the stale rows to name its bytes."""
        root = tmp_path / "c"
        store = FileChunkStore(root)
        digests = [store.put(payload(i)) for i in range(4)]
        sizes = [len(payload(i)) for i in range(4)]
        os.truncate(root / "segment.0", sizes[0] + sizes[1] + 3)
        reopened = FileChunkStore(root)
        assert reopened.digests() == digests[:2]
        assert os.path.getsize(tmp_path / "c.index" / "index.0") == 4 * 44  # untouched
        late = reopened.put(b"written after the loss")
        assert os.path.getsize(tmp_path / "c.index" / "index.0") == 3 * 44
        assert os.path.getsize(root / "segment.0") == sizes[0] + sizes[1] + 22
        again = FileChunkStore(root)
        assert again.digests() == digests[:2] + [late]
        assert again.get(late) == b"written after the loss"


# ----------------------------------------------------------------- property
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("put"), st.integers(0, 11)),
            st.tuples(st.just("discard"), st.integers(0, 11)),
            st.tuples(st.just("compact"), st.none()),
            st.tuples(st.just("reopen"), st.none()),
        ),
        max_size=40,
    )
)
def test_random_histories_agree_with_a_dict(tmp_path_factory, steps):
    """The oracle is two dicts: what this handle holds, and what a
    reopen would find — a put lands in both at once, a discard is the
    handle's own until a compaction commits it."""
    root = tmp_path_factory.mktemp("property") / "c"
    store = FileChunkStore(root)
    held: dict[str, bytes] = {}
    on_disk: dict[str, bytes] = {}
    for step, i in steps:
        if step == "put":
            digest = store.put(payload(i))
            held[digest] = on_disk[digest] = payload(i)
        elif step == "discard":
            digest = sha256_hex(payload(i))
            assert store.discard(digest) == (len(payload(i)) if digest in held else 0)
            held.pop(digest, None)
        elif step == "compact":
            store.compact()
            on_disk = dict(held)
            assert bytes_under(root) == sum(map(len, held.values()))
        else:
            store = FileChunkStore(root)
            held = dict(on_disk)
        assert sorted(store.digests()) == sorted(held)
        for digest, data in held.items():
            assert store.get(digest) == data
        for digest in set(on_disk) - set(held):
            with pytest.raises(ChunkNotFoundError):
                store.get(digest)


# ------------------------------------------------------------ many handles
class TestHandlesOnOneRoot:
    def test_opening_a_store_changes_no_byte(self, tmp_path):
        root = tmp_path / "live" / "c"
        live = FileChunkStore(root)
        digests = [live.put(payload(i)) for i in range(5)]
        live.discard(digests[0])
        live.compact()
        with open(root / "segment.1", "ab") as fh:
            fh.write(b"a torn tail")  # something an open could be tempted to fix
        before = tree(root)
        second = FileChunkStore(root)
        assert second.digests() == digests[1:]
        assert [second.get(d) for d in digests[1:]] == [payload(i) for i in range(1, 5)]
        second.flush()
        second.compact()  # nothing to give back: writes nothing either
        assert not second.contains("0" * 64)
        assert tree(root) == before
        # nor does opening where there is nothing yet create anything
        FileChunkStore(tmp_path / "nowhere" / "c").digests()
        assert not (tmp_path / "nowhere").exists()

    def test_a_second_process_constructing_a_hub_changes_no_byte(self, tmp_path):
        from repro.hub import RepositoryHub

        root = tmp_path / "root"
        hub = RepositoryHub(root)
        hub.add_tenant("ana", tokens=["tok"])
        view = TenantChunkStore(hub.backend)
        for i in range(5):
            view.put(payload(i))
        before = tree(root / "chunks")
        script = (
            "import sys; from repro.hub import RepositoryHub; "
            "from repro.storage import FileChunkStore; "
            "hub = RepositoryHub(sys.argv[1]); "
            "print(len(hub.backend.store.digests()), "
            "len(FileChunkStore(sys.argv[1] + '/chunks').digests()))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(root)],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["5", "5"]
        assert tree(root / "chunks") == before

    def test_handles_appending_in_turn_never_write_a_row_that_reads_back_wrong(
        self, tmp_path
    ):
        root = tmp_path / "c"
        first, second = FileChunkStore(root), FileChunkStore(root)
        written = {}
        for i in range(30):
            store = (first, second)[(i // 3) % 2]  # three each, in turn
            written[store.put(payload(i))] = payload(i)
        # a handle learns the other's rows when it next appends: the one
        # that wrote last knows all thirty, the other all but those three
        assert sorted(second.digests()) == sorted(FileChunkStore(root).digests())
        assert sorted(second.digests()) == sorted(written)
        assert sorted(first.digests()) == sorted(list(written)[:27])
        for store in (first, second, FileChunkStore(root)):
            for digest in store.digests():
                assert store.get(digest) == written[digest]
        assert os.path.getsize(root / "segment.0") == sum(map(len, written.values()))
        assert os.path.getsize(tmp_path / "c.index" / "index.0") == 30 * 44

    def test_a_handle_opened_before_a_compaction_elsewhere_appends_to_the_new_generation(
        self, tmp_path
    ):
        root = tmp_path / "c"
        first = FileChunkStore(root)
        kept, dropped = first.put(b"kept"), first.put(b"dropped")
        late = FileChunkStore(root)  # opened on generation 0, writes later
        first.discard(dropped)
        first.compact()
        new = late.put(b"new")
        assert os.listdir(root) == ["segment.1"]
        assert FileChunkStore(root).digests() == [kept, new]

    def test_flushed_chunks_are_there_for_a_fresh_process(self, tmp_path, syscalls):
        root = tmp_path / "c"
        store = FileChunkStore(root)
        written = {store.put(payload(i)): payload(i) for i in range(20)}
        del syscalls[:]
        store.flush()
        assert syscalls == ["fdatasync", "fdatasync"]  # segment, then index
        script = (
            "import sys, hashlib; from repro.storage import FileChunkStore; "
            "store = FileChunkStore(sys.argv[1]); "
            "print(*sorted(d for d in store.digests() "
            "if hashlib.sha256(store.get(d)).hexdigest() == d))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(root)],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == sorted(written)


# ------------------------------------------------- neighbours do not collide
def payloads_in_one_bucket(count: int, prefix: str = "ab") -> list[bytes]:
    """``count`` payloads whose digests share ``prefix``: one fan-out
    directory of the one-file-per-chunk layout."""
    found, n = [], 0
    while len(found) < count:
        data = b"bucket-%d" % n
        if sha256_hex(data).startswith(prefix):
            found.append(data)
        n += 1
    return found


@pytest.fixture(scope="module")
def bucket():
    return payloads_in_one_bucket(2000)


def put_and_discard_side_by_side(stores, bucket):
    """Each store's thread puts and at once discards its half of the
    bucket — the fan-out directory empties and refills all the time —
    and every tenth time round keeps a chunk from outside the bucket;
    returns (errors, digest -> bytes kept)."""
    halves = [bucket[0::2], bucket[1::2]]
    errors: list = []
    kept: dict[str, bytes] = {}
    start = threading.Barrier(2)

    def work(store, mine, who):
        start.wait(timeout=30)
        try:
            for n, data in enumerate(mine):
                store.discard(store.put(data))
                keeper = b"keep-%d-%d-" % (who, n) * 20
                if n % 10 == 0 and not sha256_hex(keeper).startswith("ab"):
                    kept[store.put(keeper)] = keeper
        except BaseException as error:  # noqa: BLE001 - recorded, asserted below
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=(store, mine, who))
        for who, (store, mine) in enumerate(zip(stores, halves))
    ]
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
    return errors, kept


@pytest.mark.timeout(300)
class TestAWriteBesideADiscard:
    """One thread's discard used to remove the fan-out directory another
    thread's write had just made sure of: a raw ``FileNotFoundError``."""

    def test_on_the_file_store(self, tmp_path, bucket):
        store = FileChunkStore(tmp_path / "c")
        errors, kept = put_and_discard_side_by_side((store, store), bucket)
        assert errors == []
        assert sorted(store.digests()) == sorted(kept)
        for digest, data in kept.items():
            assert store.get(digest) == data
        store.compact()
        live = sum(map(len, kept.values()))
        assert store.stats.physical_bytes == live == bytes_under(tmp_path / "c")

    def test_through_two_tenant_views(self, tmp_path, bucket):
        store = FileChunkStore(tmp_path / "c")
        backend = SharedChunkBackend(store)
        views = TenantChunkStore(backend), TenantChunkStore(backend)
        errors, kept = put_and_discard_side_by_side(views, bucket)
        assert errors == []
        assert sorted(views[0].digests() + views[1].digests()) == sorted(kept)
        for view in views:
            for digest in view.digests():
                assert view.get(digest) == kept[digest]
        backend.compact()
        live = sum(map(len, kept.values()))
        assert backend.physical_bytes == live == bytes_under(tmp_path / "c")
        assert store.stats.physical_bytes == live


# -------------------------------------------------------- the older layout
def test_a_root_in_the_one_file_per_chunk_layout_is_refused(tmp_path):
    """``<root>/ab/cdef...`` is no longer read: opening such a root
    raises instead of listing no chunks, and changes no byte."""
    root = tmp_path / "c"
    digest = sha256_hex(payload(0))
    (root / digest[:2]).mkdir(parents=True)
    (root / digest[:2] / digest[2:]).write_bytes(payload(0))
    before = tree(root)
    with pytest.raises(StorageError, match="one-file-per-chunk"):
        FileChunkStore(root)
    assert tree(root) == before
