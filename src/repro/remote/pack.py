"""Pack assembly and import: what actually crosses the wire.

A *pack* is the unit of synchronization, in the spirit of git's packfiles
specialized to MLCask's object model. It carries, for a chosen set of
commits:

* the commit dicts themselves (metadata only — identifiers, lineage,
  metrics, content references);
* the pipeline specs those commits belong to;
* the *recipes* of every stage output the commits reference (blob digest
  -> ordered chunk digests);
* the checkpoint-index records for those outputs, so the receiver can
  *reuse* replicated outputs in its own runs and merges, not merely read
  them;
* the chunk digests the receiver still needs — negotiated beforehand via
  :meth:`ChunkStore.missing` so duplicate content never crosses the wire.

Import is the mirror image: every row is decoded (:func:`decode_pack`)
before the first import, which takes the decoded rows. Two invariants:

* **Sequence reassignment.** ``sequence`` is a repository-local logical
  clock (it drives common-ancestor selection and history ordering).
  Imported commits get *fresh* local sequence numbers, assigned in the
  sender's creation order — parents always precede children on both
  sides, so ancestry keeps its "ancestors sort earlier" property without
  trusting another repository's clock.
* **Integrity on receive.** Every chunk is re-hashed against its claimed
  digest before it is written (:class:`ChunkIntegrityError` otherwise).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import replace

from ..codec import decode, encode
from ..core.checkpoint import CheckpointRecord
from ..core.commit import PipelineCommit
from ..core.pipeline import PipelineSpec
from ..errors import MLCaskError, RemoteError, RemoteProtocolError
from ..provenance.ledger import LineageRecord
from ..storage.chunk_store import ChunkStore
from ..storage.object_store import Recipe


#: Upper bound on the chunk payload of a single wire message. Both sides
#: of the protocol honour it: the server windows ``get_chunks`` responses
#: to this many bytes (the client re-requests the remainder), and the
#: client splits an oversized push into ``put_chunks`` batches before the
#: final ref update. Bounds peak memory per request instead of letting a
#: large repository materialize its whole content set in one message.
DEFAULT_MAX_PACK_BYTES = 4 * 1024 * 1024


def iter_chunk_batches(
    store: ChunkStore,
    digests: Iterable[str],
    max_bytes: int,
) -> Iterator[tuple[list[str], list[int], Iterator[bytes], bool]]:
    """Yield ``(digests, sizes, blobs, has_more)`` batches of ≤ ``max_bytes``.

    Each batch is cut from the sizes ``store`` holds for its chunks
    before any of them is read, so every chunk read is one that ships.
    ``blobs`` reads the batch's chunks lazily, one ``store.get`` per
    chunk, for :func:`~repro.remote.protocol.encode_message` to frame
    as they come (``sizes`` is the frame's size list): peak memory is
    the frame and one chunk, and consumers can act on ``has_more``
    (True on every yield except the last) without pulling the next
    batch into memory. A chunk larger than the budget still ships (as a
    batch of one) — the window bounds batch size, it never makes content
    unsendable. An unheld digest raises the store's
    :class:`~repro.errors.ChunkNotFoundError` when its batch is cut.
    """
    batch: list[str] = []
    sizes: list[int] = []
    batch_size = 0
    for digest in digests:
        size = store._size(digest)
        if batch and batch_size + size > max_bytes:
            yield batch, sizes, map(store.get, batch), True
            batch, sizes, batch_size = [], [], 0
        batch.append(digest)
        sizes.append(size)
        batch_size += size
    if batch:
        yield batch, sizes, map(store.get, batch), False


# -------------------------------------------------------------- assembly
def commits_to_send(repo, head_id: str, exclude_ids) -> list:
    """Commits reachable from ``head_id`` the receiver does not have,
    oldest first (sender creation order, so parents precede children)."""
    exclude = set(exclude_ids)
    reachable = repo.graph.ancestors(head_id)
    return sorted(
        (repo.graph.get(c) for c in reachable if c not in exclude),
        key=lambda c: c.sequence,
    )


def content_of_commits(repo, commits) -> tuple[list, list, set[str]]:
    """(recipes, checkpoint records, chunk digests) behind ``commits``.

    Only stage outputs whose recipe the sender actually holds contribute —
    a metadata-only repository (loaded from a bare state file) can still
    sync its history; the content simply is not there to ship.
    """
    blobs: set[str] = set()
    for commit in commits:
        blobs.update(commit.stage_outputs.values())
    recipes = [
        repo.objects.recipe(blob) for blob in sorted(blobs)
        if repo.objects.contains(blob)
    ]
    held = {recipe.blob_digest for recipe in recipes}
    records = [
        record
        for record in repo.checkpoints.records()
        if record.output_ref in held
    ]
    chunk_digests = repo.objects.reachable_chunks(held)
    return recipes, records, chunk_digests


def lineage_entries_for(repo, commits) -> list[dict]:
    """Ledger records back-filled with the given commits, as rows.

    This is the schema-additive ``lineage`` pack key: provenance rides
    the same have/want sync as everything else, scoped to the commits
    crossing the wire (records of uncommitted runs — losing merge
    candidates, warm re-runs — stay local). Old peers simply never read
    the key.
    """
    ledger = getattr(repo, "lineage", None)
    if ledger is None:
        return []
    records = ledger.records_for_commits(c.commit_id for c in commits)
    return [encode(r) for r in records]


def pack_meta(repo, commits, recipes, records, chunk_digests) -> dict:
    """The JSON half of a pack (chunks travel as framed binary blobs)."""
    pipelines = sorted({c.pipeline for c in commits})
    return {
        "commits": [encode(c) for c in commits],
        "specs": {
            name: encode(repo.spec(name)) for name in pipelines if name in repo._specs
        },
        "recipes": [encode(r) for r in recipes],
        "records": [encode(r) for r in records],
        # Sorted: the digests come as a set, whose order would make the
        # bytes of a response depend on the process's hash seed.
        "chunk_digests": sorted(chunk_digests),
        "lineage": lineage_entries_for(repo, commits),
    }


# ---------------------------------------------------------------- import
#: The class of the rows under each list-valued pack key.
_ROW_CLASSES = {
    "commits": PipelineCommit,
    "recipes": Recipe,
    "records": CheckpointRecord,
    "lineage": LineageRecord,
}


def decode_pack(meta: dict, what: str) -> dict:
    """Every row of a pack, decoded once, before anything imports:
    ``"specs"`` maps names to :class:`PipelineSpec`\\ s, every other row
    key lists objects of its class. A row that does not decode refuses
    the whole pack with a :class:`RemoteProtocolError` naming it
    (``what`` names the message: ``"push request"``)."""
    where = "specs"
    rows: dict = {"specs": {}}
    try:
        for name, row in meta.get("specs", {}).items():
            where = f"specs[{name!r}]"
            rows["specs"][name] = decode(PipelineSpec, row, name=name)
        for key, cls in _ROW_CLASSES.items():
            rows[key] = []
            for index, row in enumerate(meta.get(key, [])):
                where = f"{key}[{index}]"
                rows[key].append(decode(cls, row))
    except (KeyError, TypeError, ValueError, AttributeError, MLCaskError) as error:
        raise RemoteProtocolError(
            f"invalid {what}: {where} does not decode: {type(error).__name__}: {error}"
        ) from None
    return rows


def conflicting_spec(repo, specs: dict) -> str | None:
    """The first pack spec that redefines a held pipeline differently,
    described; or None. A receiver checks this before its first import,
    because specs are registered only after the content they describe."""
    for name, spec in specs.items():
        existing = repo._specs.get(name)
        if existing is not None and (
            existing.stages != spec.stages or existing.edges != spec.edges
        ):
            return f"pipeline {name!r} exists locally with a different spec"
    return None


def import_specs(repo, specs: dict) -> None:
    """Adopt pipeline specs, all or none; a conflicting redefinition is
    an error."""
    conflict = conflicting_spec(repo, specs)
    if conflict is not None:
        raise RemoteError(conflict)
    for name, spec in specs.items():
        repo._specs.setdefault(name, spec)


def import_commits(repo, commits) -> list:
    """Graft new commits into the local graph; returns the commits added.

    Commits are applied in sender-sequence order and re-stamped with local
    sequence numbers; commits already present (content-derived ids match)
    are skipped, which also makes import idempotent.
    """
    added = []
    for commit in sorted(commits, key=lambda c: c.sequence):
        if commit.commit_id in repo.graph:
            continue
        commit = replace(commit, sequence=repo._next_sequence())
        repo.graph.add(commit)
        repo.branches.note_commit(commit.pipeline, commit.branch)
        added.append(commit)
    return added


def import_content(
    repo,
    recipes,
    records,
    chunk_digests,
    chunk_blobs,
    lineage=(),
) -> int:
    """Adopt recipes, checkpoint records, lineage, and verified chunks.

    ``chunk_digests``/``chunk_blobs`` are parallel; each blob is re-hashed
    against its claimed digest on receipt. Chunks land *first*: if one
    fails its integrity check, the import aborts before any recipe is
    registered, so the store never ends up holding recipes that point at
    content it was never given. Lineage import is idempotent (the ledger
    dedups on record identity), so a record pushed and pulled back never
    doubles. Returns how many chunks were actually new to the local store.
    """
    if len(chunk_digests) != len(chunk_blobs):
        raise RemoteError(
            f"chunk manifest mismatch: {len(chunk_digests)} digests, "
            f"{len(chunk_blobs)} blobs"
        )
    new = 0
    for digest, blob in zip(chunk_digests, chunk_blobs):
        if repo.objects.import_chunk(digest, blob):
            new += 1
    for recipe in recipes:
        repo.objects.add_recipe(recipe)
    for record in records:
        repo.checkpoints.import_record(record)
    if lineage:
        ledger = getattr(repo, "lineage", None)
        if ledger is not None:
            ledger.import_entries(lineage)
    return new


def is_fast_forward_update(
    repo, old_head: str | None, new_head: str, commits
) -> bool:
    """Would moving a ref ``old_head -> new_head`` be a fast-forward once
    the pack's ``commits`` are grafted?

    Decided before anything imports: the rows' parent links are walked
    from ``new_head`` down to the commits the graph holds, whose
    ancestry the graph answers. A new branch (``old_head is None``) and
    a no-op update are both fast-forwards.
    """
    if old_head is None or old_head == new_head:
        return True
    parents = {
        commit.commit_id: commit.parents
        for commit in commits
        if commit.commit_id not in repo.graph
    }
    stack, seen, held = [new_head], set(), set()
    while stack:
        commit = stack.pop()
        if commit in seen:
            continue
        seen.add(commit)
        if commit in parents:
            stack.extend(parents[commit])
        elif commit in repo.graph:
            held.add(commit)
    return any(repo.graph.is_ancestor(old_head, commit) for commit in held)
