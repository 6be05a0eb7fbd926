"""What one chunk costs in each chunk store: system calls and microseconds.

2,400 chunks of 2.5-8 KB (the sizes the word chunker cuts a stage output
into) go through ``MemoryChunkStore``, ``FileChunkStore`` and a
``TenantChunkStore`` over each — the paths a hub push and a clone run
once per chunk. Recorded per store:

* ``syscalls`` — ``os``-level calls per novel write, dedup hit, read and
  miss, counted by wrapping the calls the way ``tests/conftest.py``'s
  ``syscalls`` fixture does. Deterministic; ``compare_baselines`` gates
  them ``exact``, so a storage change that adds a call per chunk shows
  up in the PR that adds it.
* ``us`` — wall-clock microseconds per chunk written (one ``put_many``,
  its SHA-256 included) and read (``get``), alone and beside a second
  thread that spins on the GIL (every system call hands the GIL over;
  with a busy neighbour that hand-off is what a chunk costs). Recorded
  for the next storage PR to diff, never gated: it is this machine's
  clock.
"""

import builtins
import os
import threading
from time import perf_counter

import numpy as np
from conftest import BENCH_SEED, BENCH_SMOKE, write_bench_record, write_result

from repro.errors import ChunkNotFoundError
from repro.experiments.report import format_table
from repro.hub import SharedChunkBackend, TenantChunkStore
from repro.storage import FileChunkStore, MemoryChunkStore
from repro.storage.hashing import sha256_hex

CHUNKS = 240 if BENCH_SMOKE else 2400
COUNTED = (
    "open", "fstat", "read", "close", "stat", "lstat", "mkdir", "rmdir",
    "pread", "write", "lseek", "replace", "rename", "fsync", "fdatasync",
    "listdir", "unlink", "remove",
)

STORES = {
    "memory": lambda root: MemoryChunkStore(),
    "file": lambda root: FileChunkStore(os.path.join(root, "c")),
    "view-memory": lambda root: TenantChunkStore(SharedChunkBackend()),
    "view-file": lambda root: TenantChunkStore(
        SharedChunkBackend(FileChunkStore(os.path.join(root, "shared")))
    ),
}


def payloads(count: int) -> list[bytes]:
    rng = np.random.default_rng(BENCH_SEED)
    sizes = rng.integers(2500, 8001, count)
    return [rng.integers(0, 256, int(n), dtype=np.uint8).tobytes() for n in sizes]


class Counting:
    """Count calls of the ``os`` functions in :data:`COUNTED` (and the
    buffered ``open``) while active."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self._monkeypatch = monkeypatch

    def __enter__(self):
        self._patch = self._monkeypatch.context()
        patch = self._patch.__enter__()

        def counted(original):
            def wrapper(*args, **kwargs):
                self.calls += 1
                return original(*args, **kwargs)

            return wrapper

        for name in COUNTED:
            patch.setattr(os, name, counted(getattr(os, name)))
        patch.setattr(builtins, "open", counted(builtins.open))
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)


def per_chunk_syscalls(make, root, chunks, monkeypatch) -> dict:
    store = make(root)
    store.put(b"the first write opens whatever the store keeps open")
    digests = [sha256_hex(chunk) for chunk in chunks]
    absent = [sha256_hex(b"absent-%d" % i) for i in range(len(chunks))]
    counts = {}
    with Counting(monkeypatch) as counting:
        for chunk in chunks:
            store.put(chunk)
        counts["novel_write"] = counting.calls
    with Counting(monkeypatch) as counting:
        for chunk in chunks:
            store.put(chunk)
        counts["dedup_hit"] = counting.calls
    with Counting(monkeypatch) as counting:
        for digest in digests:
            store.get(digest)
        counts["read"] = counting.calls
    with Counting(monkeypatch) as counting:
        for digest in absent:
            try:
                store.get(digest)
            except ChunkNotFoundError:
                pass
        counts["miss"] = counting.calls
    # whole numbers unless a path pays something now and then, which
    # would be worth seeing
    return {op: total / len(chunks) for op, total in counts.items()}


def per_chunk_microseconds(make, root, chunks, contended: bool) -> dict:
    stop = False

    def spin():
        n = 0
        while not stop:
            n += 1

    neighbour = threading.Thread(target=spin, daemon=True)
    if contended:
        neighbour.start()
    try:
        store = make(root)
        store.put(b"the first write opens whatever the store keeps open")
        start = perf_counter()
        digests = store.put_many(chunks)
        write = perf_counter() - start
        start = perf_counter()
        for digest in digests:
            store.get(digest)
        read = perf_counter() - start
    finally:
        stop = True
        if contended:
            neighbour.join(timeout=30)
    return {"write": write / len(chunks) * 1e6, "read": read / len(chunks) * 1e6}


def test_chunk_store_io(tmp_path, monkeypatch):
    chunks = payloads(CHUNKS)
    record, rows = {}, []
    for name, make in STORES.items():
        syscalls = per_chunk_syscalls(make, str(tmp_path / f"{name}-count"), chunks, monkeypatch)
        alone = per_chunk_microseconds(make, str(tmp_path / f"{name}-alone"), chunks, False)
        beside = per_chunk_microseconds(make, str(tmp_path / f"{name}-beside"), chunks, True)
        record[name] = {
            "syscalls": syscalls,
            "us": {
                "write": alone["write"],
                "read": alone["read"],
                "write_contended": beside["write"],
                "read_contended": beside["read"],
            },
        }
        rows.append(
            [name]
            + [f"{syscalls[op]:g}" for op in ("novel_write", "dedup_hit", "read", "miss")]
            + [f"{value:.1f}" for value in record[name]["us"].values()]
        )
    record["chunks"] = CHUNKS
    text = format_table(
        [
            "store", "calls/write", "calls/dedup", "calls/read", "calls/miss",
            "us/write", "us/read", "us/write (busy GIL)", "us/read (busy GIL)",
        ],
        rows,
        title=f"Chunk store I/O per chunk ({CHUNKS} chunks of 2.5-8 KB)",
    )
    write_result("chunk_store_io.txt", text)
    write_bench_record("chunk_store_io", record)

    # the per-chunk contract of docs/invariants.md, as numbers
    for name in ("file", "view-file"):
        assert record[name]["syscalls"] == {
            "novel_write": 3.0, "dedup_hit": 0.0, "read": 1.0, "miss": 0.0
        }
    for name in ("memory", "view-memory"):
        assert set(record[name]["syscalls"].values()) == {0.0}
