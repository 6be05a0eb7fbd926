"""Repository persistence: save/load the version-control state.

What persists is the *metadata* half of MLCask — the commit graph, branch
pointers, specs, and per-commit component references. Component
*executables* are Python callables and live in workload code, so loading
re-binds commits to components through a registry the caller provides
(the same separation the paper uses: the library repository stores
executables, the pipeline repository stores references).

A repository is persisted as a *repository directory*
(:func:`save_repository_dir` / :func:`load_repository_dir` /
:func:`gc_repository_dir`) that holds the content-addressed store beside
the version-control state, so a reloaded repository can serve clones and
reuse archived outputs without re-running anything. It is the one
on-disk form of a repository: a working copy (the
``repro init/commit/run/merge/serve/clone/push/pull/gc <dir>`` verbs)
and a repository hosted by the hub differ only in where the chunk bytes
live.

Repository directory layout::

    <dir>/state.json             the *header*: metric, seed, specs, heads,
                                 commit counts, sequence, the journal
                                 generation ``g`` and the committed byte
                                 length of each journal
    <dir>/commits.<g>.jsonl      commits, arrival order
    <dir>/recipes.<g>.jsonl      blob digest -> ordered chunk digests
    <dir>/checkpoints.<g>.jsonl  checkpoint records (reuse metadata)
    <dir>/lineage.<g>.jsonl      provenance ledger rows
    <dir>/objects/               a working copy's chunks, a
    <dir>/objects.index/         :class:`FileChunkStore` (segment + index)
    <dir>/chunks.<g>.jsonl       a hosted repository's instead: [digest,
                                 size] rows, its holdings in the hub's
                                 shared chunk backend (no ``objects/``)

Everything a repository keeps only grows between garbage collections, so
a save costs what the repository *gained*: chunks the directory lacks
are appended and flushed to disk, each journal (one JSON value per line)
gets the rows its store has added since the last save appended and
flushed, then the header is replaced atomically (and durably) with the
new lengths. That replace is the commit point: loaders read exactly the
committed lengths, the next writer cuts off whatever lies past them, so
a crash at any write leaves the previous committed state. When appending
would be wrong — another directory, another writer in between, rows
removed or amended since — every journal is written afresh under the
next generation number and committed by the header that names it; only
then do the old generation's files and the bytes of chunks no longer
held go. A directory from before the journals (the commits in its header,
one whole JSON file per collection beside it) is refused with a
:class:`RepositoryError`, never read as empty. The rules, once for both
hosts, are in ``docs/invariants.md`` ("Repository metadata: one commit
point").

A journal row and a pack row travelling over a transport are one row:
both are :func:`repro.codec.encode` of the object, read back by
:func:`repro.codec.decode`, whose dataclass is its schema.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass, field

from ..codec import decode, encode
from ..errors import RepositoryError
from ..provenance.ledger import LineageRecord
from ..storage.chunk_store import FileChunkStore, write_atomic
from ..storage.gc import GCReport, sweep_repository
from ..storage.object_store import ObjectStore, Recipe
from .checkpoint import CheckpointRecord
from .commit import PipelineCommit
from .pipeline import PipelineSpec

FORMAT_VERSION = 1

STATE_FILE = "state.json"
OBJECTS_DIR = "objects"


def write_json_atomic(
    path: str, payload: dict, sync: bool = False, **dump_kwargs
) -> None:
    """Write-to-temp + rename, like the chunk store's object files: a
    crashed writer must never leave a truncated metadata file under its
    real name — loaders would fail on it and the repository (or a whole
    hub) would be unreadable until repaired by hand. ``sync`` flushes the
    file and its rename to disk before returning (see
    :func:`~repro.storage.chunk_store.write_atomic`)."""
    write_atomic(path, json.dumps(payload, **dump_kwargs).encode("utf-8"), sync)


# ---------------------------------------------------------------- journals
def append_journal(path: str, committed: int, rows) -> int:
    """Append ``rows`` (one JSON value per line) after the first
    ``committed`` bytes of the journal at ``path``; return its new length.

    Bytes past ``committed`` are what a writer that died before its
    commit point left behind (whole rows or a torn one) and are cut off
    first. The caller commits the returned length by publishing it
    elsewhere (:func:`save_repository_dir` writes it into the header);
    until then readers keep seeing ``committed`` bytes. The rows are
    flushed to disk before returning, so a length published afterwards
    never names bytes a power loss could still take."""
    data = b"".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")).encode("utf-8")
        + b"\n"
        for row in rows
    )
    with open(path, "ab") as fh:
        size = fh.tell()
        if size < committed:
            raise RepositoryError(
                f"journal {path} holds {size} bytes, {committed} were committed"
            )
        if size > committed:
            fh.truncate(committed)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    return committed + len(data)


def read_journal(path: str, committed: int) -> list:
    """The rows in the first ``committed`` bytes of the journal at
    ``path`` — never a byte past them, whatever the file holds."""
    if not committed:
        return []
    with open(path, "rb") as fh:
        data = fh.read(committed)
    if len(data) < committed:
        raise RepositoryError(
            f"journal {path} holds {len(data)} bytes, {committed} were committed"
        )
    return [json.loads(line) for line in data.splitlines()]


# ------------------------------------------------------------- state file
def repository_header(repo) -> dict:
    """The small mutable part of a repository's version-control state:
    everything but the commits, whose number only ever grows."""
    specs = {name: encode(repo.spec(name)) for name in repo.branches.pipelines()}
    heads = {
        pipeline: {
            branch: repo.branches.head(pipeline, branch)
            for branch in repo.branches.branches(pipeline)
        }
        for pipeline in repo.branches.pipelines()
    }
    counts = {
        pipeline: {
            branch: repo.branches.next_commit_count(pipeline, branch)
            for branch in repo.branches.branches(pipeline)
        }
        for pipeline in repo.branches.pipelines()
    }
    return {
        "format": FORMAT_VERSION,
        "metric": repo.metric,
        "seed": repo.seed,
        "specs": specs,
        "heads": heads,
        "commit_counts": counts,
        "sequence": repo._sequence,
    }


# ----------------------------------------------------- repository directory
#: The journal a hub-hosted repository keeps in place of ``objects/``.
HOLDINGS = "chunks"

#: journal -> (the store of a repository it mirrors, whose ``len`` is the
#: rows it holds; the rows (JSON values) that store has gained from its
#: ``start``-th on, in arrival order).
_JOURNALS = {
    "commits": (
        lambda repo: repo.graph,
        lambda graph, start: [encode(c) for c in graph.arrivals(start)],
    ),
    "recipes": (
        lambda repo: repo.objects,
        lambda objects, start: [encode(r) for r in objects.recipes(start)],
    ),
    "checkpoints": (
        lambda repo: repo.checkpoints,
        lambda store, start: [encode(r) for r in store.records(start)],
    ),
    "lineage": (
        lambda repo: repo.lineage,
        lambda ledger, start: [encode(r) for r in ledger.records(start)],
    ),
    HOLDINGS: (
        lambda repo: repo.objects.chunks,
        lambda view, start: list(view.holdings(start).items()),
    ),
}

_JOURNAL_FILE_NAME = re.compile(r"(?P<name>[a-z]+)\.(?P<generation>\d+)\.jsonl")


def _journal_path(root: str, name: str, generation: int) -> str:
    return os.path.join(root, f"{name}.{generation}.jsonl")


@dataclass
class SavedMarks:
    """What a repository remembers of the directory it was loaded from
    or last saved to — what lets the next save there append."""

    root: str | None = None
    generation: int = -1
    #: What the header at ``root`` commits: journal -> (rows, bytes).
    journals: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: True from before garbage collection removes or amends rows the
    #: journals hold until a compacted generation is committed: the row
    #: counts above no longer index the stores, so the next save, whoever
    #: runs it, must not append from them.
    compaction_due: bool = False


def is_repository_dir(path: str | os.PathLike[str]) -> bool:
    return os.path.isfile(os.path.join(os.fspath(path), STATE_FILE))


def read_repository_header(path: str | os.PathLike[str]) -> dict:
    root = os.fspath(path)
    if not is_repository_dir(root):
        raise RepositoryError(f"not a repository directory: {root}")
    with open(os.path.join(root, STATE_FILE)) as fh:
        header = json.load(fh)
    if "generation" not in header or "journals" not in header:
        raise RepositoryError(
            f"{root} is in the pre-journal directory format (commits in "
            f"{STATE_FILE}, one JSON file per collection), which is not read"
        )
    return header


def _read_rows(root: str, header: dict, name: str) -> list:
    """The committed rows of one journal of a repository directory."""
    return read_journal(
        _journal_path(root, name, header["generation"]),
        header["journals"].get(name, 0),
    )


def read_holdings(path: str | os.PathLike[str], header: dict) -> dict[str, int]:
    """digest -> size of every chunk a hosted repository directory
    claims in the shared backend."""
    return dict(_read_rows(os.fspath(path), header, HOLDINGS))


def save_repository_dir(
    repo, path: str | os.PathLike[str], hosted: bool = False
) -> None:
    """Persist state *and* content under a repository directory.

    Appends what the stores gained since ``repo.saved`` was taken, then
    commits it by replacing the header; when the marks do not describe
    what ``path`` holds now, every journal is written afresh under the
    next generation instead. Nothing the current header names is touched
    before the new one is in place, and the marks move only after it is:
    a save that fails leaves the next one the same work. ``hosted`` is
    the hub's form: the chunk store is a view on a shared backend, whose
    holdings are journaled in place of mirroring bytes to ``objects/``."""
    root = os.path.abspath(os.fspath(path))
    os.makedirs(root, exist_ok=True)
    marks = repo.saved
    on_disk = read_repository_header(root) if is_repository_dir(root) else {}
    append = (
        marks.root == root
        and not marks.compaction_due
        # another writer committed in between: its rows are not ours
        and on_disk.get("generation") == marks.generation
        and on_disk.get("journals")
        == {name: length for name, (_, length) in marks.journals.items()}
        and not any(
            store.amended_from is not None
            and store.amended_from < marks.journals[name][0]
            for name, store in (
                ("checkpoints", repo.checkpoints), ("lineage", repo.lineage)
            )
        )
    )
    if append:
        generation, done = marks.generation, marks.journals
    else:
        generation, done = on_disk.get("generation", -1) + 1, {}

    chunks = repo.objects.chunks
    if not hosted:
        disk = FileChunkStore(os.path.join(root, OBJECTS_DIR))
        held = set(chunks.digests())
        for digest in held:
            if not disk.contains(digest):
                disk.import_chunk(digest, chunks.get(digest))
    # Chunk bytes reach the disk before the journals that name them.
    (chunks if hosted else disk).flush()
    committed = {}
    for name, (store_of, tail) in _JOURNALS.items():
        if name == HOLDINGS and not hosted:
            continue
        rows_done, length = done.get(name, (0, 0))
        rows = tail(store_of(repo), rows_done)
        if rows:
            length = append_journal(
                _journal_path(root, name, generation), length, rows
            )
        committed[name] = (rows_done + len(rows), length)
    header = repository_header(repo)
    header["generation"] = generation
    header["journals"] = {name: mark[1] for name, mark in committed.items()}
    write_json_atomic(
        os.path.join(root, STATE_FILE), header, sync=True, sort_keys=True
    )
    repo.saved = SavedMarks(root, generation, committed)
    repo.checkpoints.amended_from = repo.lineage.amended_from = None
    if not append:
        _sweep_repo_dir(root, generation)
    if not hosted:
        # Mirror deletions too: chunks the repository no longer holds
        # (e.g. swept by gc) must not resurrect from disk on the next
        # load — but go only now that no committed header names them.
        for digest in disk.digests():
            if digest not in held:
                disk.discard(digest)
        disk.compact()


def _sweep_repo_dir(root: str, generation: int) -> None:
    """Remove the metadata files the committed header no longer names,
    and nothing else: journals of other generations (the one just
    compacted away, or what a compaction that died before its header
    left), the header's temp leftovers."""
    for entry in os.listdir(root):
        journal = _JOURNAL_FILE_NAME.fullmatch(entry)
        stale = (
            (entry.startswith(STATE_FILE + ".") and entry.endswith(".tmp"))
            or (
                journal is not None
                and journal["name"] in _JOURNALS
                and int(journal["generation"]) != generation
            )
        )
        if stale:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(root, entry))


def restore_repository_dir(
    repo, path: str | os.PathLike[str], header: dict, registry=None
) -> None:
    """Fill ``repo`` with what ``header``, read from the repository
    directory at ``path``, commits — everything but the chunks.

    ``registry`` (a :class:`ComponentRegistry` or any object with a
    compatible ``get``/``register``) supplies the live components the
    commits reference; commits whose components are absent still load
    (the history is intact) but cannot be re-instantiated until the
    components are registered."""
    if header.get("format") != FORMAT_VERSION:
        raise RepositoryError(
            f"unsupported repository format {header.get('format')!r}"
        )
    root = os.path.abspath(os.fspath(path))
    if registry is not None:
        repo.registry = registry
    for name, spec_state in header["specs"].items():
        repo._specs[name] = decode(PipelineSpec, spec_state, name=name)
    for entry in _read_rows(root, header, "commits"):
        repo.graph.add(decode(PipelineCommit, entry))
    for pipeline, branches in header["heads"].items():
        for branch, head in branches.items():
            repo.branches.set_head(pipeline, branch, head)
    for pipeline, branches in header["commit_counts"].items():
        for branch, count in branches.items():
            for _ in range(count):
                repo.branches.note_commit(pipeline, branch)
    repo._sequence = header["sequence"]
    for entry in _read_rows(root, header, "recipes"):
        repo.objects.add_recipe(decode(Recipe, entry))
    for entry in _read_rows(root, header, "checkpoints"):
        repo.checkpoints.import_record(decode(CheckpointRecord, entry))
    repo.lineage.import_entries(
        decode(LineageRecord, entry) for entry in _read_rows(root, header, "lineage")
    )
    # Row cursors come from the stores, which is what a save slices: a
    # loader that folds two equal rows into one must not leave the cursor
    # past the end of its store.
    repo.saved = SavedMarks(
        root,
        header["generation"],
        {
            name: (len(_JOURNALS[name][0](repo)), length)
            for name, length in header["journals"].items()
        },
    )


def _open_repository_dir(path, registry, in_place: bool):
    from .repository import MLCask

    header = read_repository_header(path)
    objects_root = os.path.join(os.fspath(path), OBJECTS_DIR)
    repo = MLCask(
        metric=header["metric"],
        seed=header["seed"],
        objects=ObjectStore(FileChunkStore(objects_root)) if in_place else None,
    )
    restore_repository_dir(repo, path, header, registry=registry)
    if not in_place and os.path.isdir(objects_root):
        disk = FileChunkStore(objects_root)
        for digest in disk.digests():
            repo.objects.import_chunk(digest, disk.get(digest))
    return repo


def load_repository_dir(path: str | os.PathLike[str], registry=None):
    """Rebuild a repository (state + content) from a repository directory."""
    return _open_repository_dir(path, registry, in_place=False)


def gc_repository_dir(
    path: str | os.PathLike[str], keep_checkpoints: bool = False
) -> tuple[GCReport, int]:
    """Sweep a repository *directory* in place, without loading chunks.

    Live roots are the stage outputs of every commit; with
    ``keep_checkpoints`` the archived checkpoint records count as roots
    too (preserving reuse for outputs no commit kept, e.g. losing merge
    candidates). Everything else — chunks, dead recipes, and (unless
    kept) orphaned checkpoint records — is removed by a compacting save,
    the chunks' bytes after its header; ledger rows of swept outputs are
    kept, flagged ``collected``.

    Unlike ``MLCask.load_dir() -> repo.gc() -> save_dir()``, the
    repository works directly against the on-disk ``objects/``, so peak
    memory is the metadata, never the content. Returns ``(report,
    pruned_records)``.
    """
    repo = _open_repository_dir(path, None, in_place=True)
    swept = sweep_repository(repo, keep_checkpoints)
    save_repository_dir(repo, path)
    return swept
