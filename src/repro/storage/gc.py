"""Garbage collection for the content-addressed store.

Immutable engines never overwrite, so abandoned experiments leave chunks
behind. GC is mark-and-sweep: callers name the *live roots* (blob digests
still referenced by checkpoint records, KV heads, or commits), the
collector walks their recipes to the chunk level and drops everything
else. Content addressing makes this safe: a chunk is either reachable
from a live recipe or provably garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .object_store import ObjectStore


@dataclass(frozen=True)
class GCReport:
    """What a sweep did."""

    live_blobs: int
    live_chunks: int
    swept_chunks: int
    swept_bytes: int


def collect_garbage(store: ObjectStore, live_blob_digests: set[str]) -> GCReport:
    """Drop chunks unreachable from ``live_blob_digests``.

    The sweep speaks only the :class:`ChunkStore` interface
    (``digests()``/``discard()``), so every backend sweeps in place:
    memory stores drop dict entries, :class:`FileChunkStore` forgets the
    chunk (its ``compact()``, which the caller runs once its own commit
    point no longer names the chunk, gives the bytes back), and a hub
    tenant view releases its refcounts on the shared backend — the bytes
    disappear deployment-wide only when the last tenant's sweep lets go.
    """
    chunks = store.chunks

    live_chunks: set[str] = set()
    live_blobs = 0
    for digest in live_blob_digests:
        if not store.contains(digest):
            continue
        live_blobs += 1
        live_chunks.update(store.recipe(digest).chunk_digests)

    swept_chunks = 0
    swept_bytes = 0
    for digest in list(chunks.digests()):
        if digest not in live_chunks:
            swept_bytes += chunks.discard(digest)
            swept_chunks += 1

    # Drop dead recipes so future GC runs stay linear in live data.
    dead_recipes = [
        digest for digest in store._recipes if digest not in live_blob_digests
    ]
    for digest in dead_recipes:
        del store._recipes[digest]
        store.revision += 1

    return GCReport(
        live_blobs=live_blobs,
        live_chunks=len(live_chunks),
        swept_chunks=swept_chunks,
        swept_bytes=swept_bytes,
    )


def live_digests_of_repo(repo) -> set[str]:
    """Live blob roots of an MLCask repository: every checkpointed output
    referenced by a commit, plus every checkpoint record (merge candidates
    not committed anywhere are *not* roots — they are what GC reclaims
    after pruning history)."""
    live: set[str] = set()
    for commit in repo.graph.all_commits():
        live.update(commit.stage_outputs.values())
    return live


def sweep_repository(repo, keep_checkpoints: bool = False) -> tuple[GCReport, int]:
    """Garbage-collect an MLCask repository, whatever hosts it: prune the
    checkpoint index, flag (never drop) the ledger rows of swept outputs,
    sweep the object store. With ``keep_checkpoints`` the archived
    records count as roots too. Returns ``(report, pruned_records)``."""
    live = live_digests_of_repo(repo)
    if keep_checkpoints:
        live.update(record.output_ref for record in repo.checkpoints.records())
    # From here on the stores no longer line up with the journals of the
    # directory the repository was saved to; the flag outlives a save
    # that fails, so whichever save comes next compacts instead of
    # appending from stale cursors.
    repo.saved.compaction_due = True
    pruned = repo.checkpoints.prune(live)
    repo.lineage.mark_collected(live)
    return collect_garbage(repo.objects, live), pruned
