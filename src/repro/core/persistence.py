"""Repository persistence: save/load the version-control state.

What persists is the *metadata* half of MLCask — the commit graph, branch
pointers, specs, and per-commit component references. Component
*executables* are Python callables and live in workload code, so loading
re-binds commits to components through a registry the caller provides
(the same separation the paper uses: the library repository stores
executables, the pipeline repository stores references).

Two layouts are supported:

* a single JSON file (:func:`save_repository` / :func:`load_repository`)
  holding only the version-control state. Checkpointed outputs are
  content-addressed; a repository loaded this way starts with an empty
  checkpoint store and repopulates it lazily on the next runs (every
  re-execution is deterministic, so the archive converges to the same
  content);
* a *repository directory* (:func:`save_repository_dir` /
  :func:`load_repository_dir`) that additionally persists the
  content-addressed store — chunks in a git-style object directory,
  recipes and the checkpoint index as JSON — so a reloaded repository can
  serve clones and reuse archived outputs without re-running anything.
  This is the on-disk format behind the ``repro serve/clone/push/pull``
  CLI verbs.

The per-object dict codecs (:func:`commit_to_dict` & friends) are shared
with the remote-sync wire protocol: a pack travelling over a transport
and a state file resting on disk serialize commits identically. The hub
stores the same dicts one per line in append-only journals
(:func:`append_journal` / :func:`read_journal`) behind a header
(:func:`repository_header`) — see :mod:`repro.hub.hub` for that layout.
"""

from __future__ import annotations

import json
import os

from ..errors import RepositoryError
from ..storage.chunk_store import FileChunkStore, write_atomic
from ..storage.object_store import Recipe
from .checkpoint import CheckpointRecord
from .commit import PipelineCommit
from .pipeline import PipelineSpec
from .semver import SemVer

FORMAT_VERSION = 1

STATE_FILE = "state.json"
OBJECTS_DIR = "objects"
RECIPES_FILE = "recipes.json"
CHECKPOINTS_FILE = "checkpoints.json"
LINEAGE_FILE = "lineage.json"


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
    elsewhere (the hub writes it into the repository header); until
    then readers keep seeing ``committed`` bytes. The rows are flushed to
    disk before returning, so a length published afterwards never names
    bytes a power loss could still take."""
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


# ------------------------------------------------------------- dict codecs
def commit_to_dict(commit: PipelineCommit) -> dict:
    return {
        "commit_id": commit.commit_id,
        "pipeline": commit.pipeline,
        "version": commit.version.dotted,
        "branch": commit.branch,
        "parents": list(commit.parents),
        "component_versions": dict(commit.component_versions),
        "component_fingerprints": dict(commit.component_fingerprints),
        "stage_outputs": dict(commit.stage_outputs),
        "metrics": dict(commit.metrics),
        "score": commit.score,
        "message": commit.message,
        "author": commit.author,
        "sequence": commit.sequence,
    }


def commit_from_dict(entry: dict) -> PipelineCommit:
    return PipelineCommit(
        commit_id=entry["commit_id"],
        pipeline=entry["pipeline"],
        version=SemVer.parse_dotted(entry["version"]),
        branch=entry["branch"],
        parents=tuple(entry["parents"]),
        component_versions=entry["component_versions"],
        component_fingerprints=entry["component_fingerprints"],
        stage_outputs=entry["stage_outputs"],
        metrics=entry["metrics"],
        score=entry["score"],
        message=entry["message"],
        author=entry["author"],
        sequence=entry["sequence"],
    )


def spec_to_dict(spec: PipelineSpec) -> dict:
    return {
        "stages": list(spec.stages),
        "edges": [list(edge) for edge in spec.edges],
    }


def spec_from_dict(name: str, entry: dict) -> PipelineSpec:
    return PipelineSpec(
        name=name,
        stages=tuple(entry["stages"]),
        edges=tuple(tuple(edge) for edge in entry["edges"]),
    )


def recipe_to_dict(recipe: Recipe) -> dict:
    return {
        "blob": recipe.blob_digest,
        "chunks": list(recipe.chunk_digests),
        "size": recipe.size,
    }


def recipe_from_dict(entry: dict) -> Recipe:
    return Recipe(
        blob_digest=entry["blob"],
        chunk_digests=tuple(entry["chunks"]),
        size=entry["size"],
    )


def record_to_dict(record: CheckpointRecord) -> dict:
    return {
        "key": record.key,
        "component_id": record.component_id,
        "output_ref": record.output_ref,
        "output_bytes": record.output_bytes,
        "run_seconds": record.run_seconds,
        "metrics": dict(record.metrics),
    }


def record_from_dict(entry: dict) -> CheckpointRecord:
    return CheckpointRecord(
        key=entry["key"],
        component_id=entry["component_id"],
        output_ref=entry["output_ref"],
        output_bytes=entry["output_bytes"],
        run_seconds=entry["run_seconds"],
        metrics=dict(entry["metrics"]),
    )


# ------------------------------------------------------------- state file
def repository_header(repo) -> dict:
    """The small mutable part of a repository's version-control state:
    everything but the commits, whose number only ever grows."""
    specs = {
        name: spec_to_dict(repo.spec(name)) for name in repo.branches.pipelines()
    }
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


def repository_state(repo) -> dict:
    """Serializable snapshot of a repository's version-control state."""
    state = repository_header(repo)
    state["commits"] = [commit_to_dict(c) for c in repo.graph.all_commits()]
    return state


def save_repository(repo, path: str | os.PathLike[str]) -> None:
    """Write the repository state to ``path`` as JSON."""
    state = repository_state(repo)
    with open(os.fspath(path), "w") as fh:
        json.dump(state, fh, indent=2, sort_keys=True)


def load_repository(path: str | os.PathLike[str], registry=None, repo=None):
    """Rebuild a repository from ``path``.

    ``registry`` (a :class:`ComponentRegistry` or any object with a
    compatible ``get``/``register``) supplies the live components the
    commits reference; commits whose components are absent still load (the
    history is intact) but cannot be re-instantiated until the components
    are registered.
    """
    with open(os.fspath(path)) as fh:
        state = json.load(fh)
    return restore_repository(state, registry=registry, repo=repo)


def restore_repository(state: dict, registry=None, repo=None):
    """:func:`load_repository` from an already-parsed state; commits are
    added in the order ``state["commits"]`` lists them."""
    from .repository import MLCask

    if state.get("format") != FORMAT_VERSION:
        raise RepositoryError(
            f"unsupported repository format {state.get('format')!r}"
        )

    if repo is None:
        repo = MLCask(metric=state["metric"], seed=state["seed"])
    if registry is not None:
        repo.registry = registry

    for name, spec_state in state["specs"].items():
        repo._specs[name] = spec_from_dict(name, spec_state)

    for entry in state["commits"]:
        repo.graph.add(commit_from_dict(entry))

    for pipeline, branches in state["heads"].items():
        for branch, head in branches.items():
            repo.branches.set_head(pipeline, branch, head)
    for pipeline, branches in state["commit_counts"].items():
        for branch, count in branches.items():
            for _ in range(count):
                repo.branches.note_commit(pipeline, branch)
    repo._sequence = state["sequence"]
    return repo


# ------------------------------------------------------ directory layout
def save_repository_dir(repo, path: str | os.PathLike[str]) -> None:
    """Persist state *and* content under a repository directory.

    Layout::

        <dir>/state.json        version-control state (as save_repository)
        <dir>/objects/ab/cdef.. chunks, git-style two-char fan-out
        <dir>/recipes.json      blob digest -> ordered chunk digests
        <dir>/checkpoints.json  checkpoint index (reuse metadata)
        <dir>/lineage.json      append-only provenance ledger
    """
    root = os.fspath(path)
    os.makedirs(root, exist_ok=True)
    save_repository(repo, os.path.join(root, STATE_FILE))

    disk = FileChunkStore(os.path.join(root, OBJECTS_DIR))
    chunks = repo.objects.chunks
    held = set(chunks.digests())
    for digest in held:
        if not disk.contains(digest):
            disk.import_chunk(digest, chunks.get(digest))
    # Mirror deletions too: chunks the repository no longer holds (e.g.
    # swept by gc) must not resurrect from disk on the next load.
    for digest in disk.digests():
        if digest not in held:
            disk.discard(digest)

    with open(os.path.join(root, RECIPES_FILE), "w") as fh:
        json.dump(
            {"recipes": [recipe_to_dict(r) for r in repo.objects.recipes()]},
            fh,
            indent=2,
            sort_keys=True,
        )
    with open(os.path.join(root, CHECKPOINTS_FILE), "w") as fh:
        json.dump(
            {"records": [record_to_dict(r) for r in repo.checkpoints.records()]},
            fh,
            indent=2,
            sort_keys=True,
        )
    with open(os.path.join(root, LINEAGE_FILE), "w") as fh:
        json.dump(repo.lineage.to_payload(), fh, indent=2, sort_keys=True)


def is_repository_dir(path: str | os.PathLike[str]) -> bool:
    return os.path.isfile(os.path.join(os.fspath(path), STATE_FILE))


def gc_repository_dir(
    path: str | os.PathLike[str], keep_checkpoints: bool = False
) -> tuple["GCReport", int]:
    """Sweep a repository *directory* in place, without loading chunks.

    Live roots are computed from the persisted commit graph (every stage
    output a commit references); with ``keep_checkpoints`` the archived
    checkpoint records count as roots too (preserving reuse for outputs
    no commit kept, e.g. losing merge candidates). Everything else —
    chunk files, dead recipes, and (unless kept) orphaned checkpoint
    records — is removed, and the metadata files are rewritten to match.

    Unlike ``MLCask.load_dir() -> repo.gc() -> save_dir()``, this works
    directly against the on-disk :class:`FileChunkStore`, so peak memory
    is the metadata, never the content. Returns ``(report,
    pruned_records)``.
    """
    from ..storage.gc import GCReport, collect_garbage  # noqa: F401
    from ..storage.object_store import ObjectStore

    root = os.fspath(path)
    if not is_repository_dir(root):
        raise RepositoryError(f"not a repository directory: {root}")
    with open(os.path.join(root, STATE_FILE)) as fh:
        state = json.load(fh)

    live: set[str] = set()
    for entry in state.get("commits", []):
        live.update(entry.get("stage_outputs", {}).values())

    record_entries: list[dict] = []
    checkpoints_path = os.path.join(root, CHECKPOINTS_FILE)
    if os.path.isfile(checkpoints_path):
        with open(checkpoints_path) as fh:
            record_entries = json.load(fh)["records"]
    if keep_checkpoints:
        live.update(entry["output_ref"] for entry in record_entries)
    kept_records = [
        entry for entry in record_entries if entry["output_ref"] in live
    ]

    objects = ObjectStore(
        chunk_store=FileChunkStore(os.path.join(root, OBJECTS_DIR))
    )
    recipes_path = os.path.join(root, RECIPES_FILE)
    if os.path.isfile(recipes_path):
        with open(recipes_path) as fh:
            for entry in json.load(fh)["recipes"]:
                objects.add_recipe(recipe_from_dict(entry))

    report = collect_garbage(objects, live)

    # Atomic rewrites: the chunk files are already gone, so a truncated
    # recipes/checkpoints file here would leave the repo unreadable.
    write_json_atomic(
        recipes_path,
        {"recipes": [recipe_to_dict(r) for r in objects.recipes()]},
        indent=2,
        sort_keys=True,
    )
    write_json_atomic(
        checkpoints_path, {"records": kept_records}, indent=2, sort_keys=True
    )

    # The lineage ledger is append-only: rows for swept outputs are kept
    # but flagged collected, so provenance survives the sweep.
    lineage_path = os.path.join(root, LINEAGE_FILE)
    if os.path.isfile(lineage_path):
        with open(lineage_path) as fh:
            lineage_entries = json.load(fh).get("records", [])
        for entry in lineage_entries:
            if entry.get("output_ref") not in live:
                entry["collected"] = True
        write_json_atomic(
            lineage_path,
            {"records": lineage_entries},
            indent=2,
            sort_keys=True,
        )
    return report, len(record_entries) - len(kept_records)


def load_repository_dir(path: str | os.PathLike[str], registry=None):
    """Rebuild a repository (state + content) from a repository directory."""
    root = os.fspath(path)
    if not is_repository_dir(root):
        raise RepositoryError(f"not a repository directory: {root}")
    repo = load_repository(os.path.join(root, STATE_FILE), registry=registry)

    objects_root = os.path.join(root, OBJECTS_DIR)
    if os.path.isdir(objects_root):
        disk = FileChunkStore(objects_root)
        for digest in disk.digests():
            repo.objects.import_chunk(digest, disk.get(digest))

    recipes_path = os.path.join(root, RECIPES_FILE)
    if os.path.isfile(recipes_path):
        with open(recipes_path) as fh:
            for entry in json.load(fh)["recipes"]:
                repo.objects.add_recipe(recipe_from_dict(entry))

    checkpoints_path = os.path.join(root, CHECKPOINTS_FILE)
    if os.path.isfile(checkpoints_path):
        with open(checkpoints_path) as fh:
            for entry in json.load(fh)["records"]:
                repo.checkpoints.import_record(record_from_dict(entry))

    lineage_path = os.path.join(root, LINEAGE_FILE)
    if os.path.isfile(lineage_path):  # absent in pre-ledger directories
        with open(lineage_path) as fh:
            repo.lineage.load_payload(json.load(fh))
    return repo
