"""The wire-op table: every per-operation fact, stated once.

One :class:`OpSpec` per operation a server understands carries its
name, lock side, cacheability, hub pre-flight status, shed exemption,
p99 objective, blob-digest key and request validator.
Everything else *derives* from :data:`OP_TABLE`:
``OPS``/``WRITE_OPS`` (:mod:`repro.remote.protocol`), ``CACHEABLE_OPS``
and ``validate_request`` (:mod:`repro.remote.server`), ``PREFLIGHT_OPS``
(:mod:`repro.hub.hub`) and ``SHED_EXEMPT_OPS`` (:mod:`repro.obs.health`)
are comprehensions over it, the health model judges each op against
its ``p99_seconds``, and ``RepositoryServer`` binds its ``_op_<name>`` handlers
against it at class-definition time.

This is a leaf module: it imports only :mod:`repro.errors`, so the
``obs`` package can read the table without re-entering ``remote``
mid-import.

The "adding an op" recipe sits beside ``OPS`` in
:mod:`repro.remote.protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import RemoteProtocolError

#: The query forms one ``lineage`` request can carry, mapped to the
#: provenance-query entry points they dispatch to.
LINEAGE_QUERIES = ("lineage", "consumers", "impact")


@dataclass(frozen=True)
class OpSpec:
    """Everything the stack knows about one wire operation."""

    name: str
    #: ``validator(spec, meta, blobs)`` rejects a malformed request via
    #: :meth:`fail` before any handler (or hub admission) state is read.
    validator: Callable[["OpSpec", dict, list], None]
    #: p99 latency objective, seconds: what the health model
    #: (:mod:`repro.obs.health`) sheds and reports breaches against.
    p99_seconds: float
    #: Mutates repository state: served under the exclusive side of the
    #: server's reader-writer lock; everything else is a read.
    write: bool = False
    #: Response served from the server's response cache: a pure function
    #: of (request bytes, repository state), so a repeated request under
    #: an unchanged state token gets the bytes it got before.
    cacheable: bool = False
    #: A read a push performs before its first write; a hub answers it
    #: even for a repository that does not exist yet (``PREFLIGHT_OPS``).
    preflight: bool = False
    #: Never shed by hub admission (``SHED_EXEMPT_OPS``).
    shed_exempt: bool = False
    #: Meta key of the digest list parallel to the request's blobs
    #: (write ops only) — what validation pairs and quota charges.
    blob_digests_key: str | None = None

    def validate(self, meta: dict, blobs: list) -> None:
        self.validator(self, meta, blobs)

    def fail(self, message: str):
        raise RemoteProtocolError(f"invalid {self.name} request: {message}")


# ------------------------------------------------------- request validators
def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_dict_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _no_fields(spec: OpSpec, meta: dict, blobs: list) -> None:
    """The handler reads no request field; nothing to reject."""


def _require_str_list(spec: OpSpec, meta: dict, key: str) -> None:
    if not _is_str_list(meta.get(key, [])):
        spec.fail(f"'{key}' must be a list of strings")


def _validate_known_commits(spec: OpSpec, meta: dict, blobs: list) -> None:
    _require_str_list(spec, meta, "ids")


def _validate_missing_chunks(spec: OpSpec, meta: dict, blobs: list) -> None:
    _require_str_list(spec, meta, "digests")


def _validate_get_chunks(spec: OpSpec, meta: dict, blobs: list) -> None:
    _require_str_list(spec, meta, "digests")
    max_bytes = meta.get("max_bytes")
    if max_bytes is not None and not _is_positive_int(max_bytes):
        spec.fail("'max_bytes' must be a positive integer")


def _validate_blob_digests(spec: OpSpec, meta: dict, blobs: list) -> None:
    digests = meta.get(spec.blob_digests_key, [])
    if not _is_str_list(digests):
        spec.fail("chunk digests must be a list of strings")
    if len(digests) != len(blobs):
        spec.fail(f"{len(digests)} chunk digests but {len(blobs)} blobs")


def _validate_fetch(spec: OpSpec, meta: dict, blobs: list) -> None:
    want = meta.get("want")
    if want is not None:
        if not isinstance(want, dict):
            spec.fail("'want' must be null or {pipeline: [branch, ...]}")
        for pipeline, branches in want.items():
            if not isinstance(pipeline, str) or not _is_str_list(branches):
                spec.fail("'want' must map pipeline names to branch lists")
    _require_str_list(spec, meta, "have_commits")


def _validate_push(spec: OpSpec, meta: dict, blobs: list) -> None:
    commits = meta.get("commits", [])
    if not _is_dict_list(commits):
        spec.fail("'commits' must be a list of commit dicts")
    for entry in commits:
        if not isinstance(entry.get("commit_id"), str):
            spec.fail("every commit needs a string 'commit_id'")
        if not isinstance(entry.get("sequence"), int):
            spec.fail("every commit needs an integer 'sequence'")
    if not isinstance(meta.get("specs", {}), dict):
        spec.fail("'specs' must be a dict")
    recipes = meta.get("recipes", [])
    if not _is_dict_list(recipes):
        spec.fail("'recipes' must be a list of recipe dicts")
    for entry in recipes:
        if (
            not isinstance(entry.get("blob"), str)
            or not _is_str_list(entry.get("chunks"))
            or not isinstance(entry.get("size"), int)
            or isinstance(entry.get("size"), bool)
        ):
            spec.fail(
                "every recipe needs a string 'blob', a 'chunks' list of "
                "strings, and an integer 'size'"
            )
    if not _is_dict_list(meta.get("records", [])):
        spec.fail("'records' must be a list of record dicts")
    if not _is_dict_list(meta.get("lineage", [])):
        spec.fail("'lineage' must be a list of lineage-record dicts")
    _validate_blob_digests(spec, meta, blobs)
    refs = meta.get("refs", {})
    if not isinstance(refs, dict):
        spec.fail("'refs' must be {pipeline: {branch: {old, new}}}")
    for pipeline, branches in refs.items():
        if not isinstance(pipeline, str) or not isinstance(branches, dict):
            spec.fail("'refs' must be {pipeline: {branch: {old, new}}}")
        for branch, update in branches.items():
            if not isinstance(branch, str) or not isinstance(update, dict):
                spec.fail("every ref update must be a {old, new} dict")
            if not isinstance(update.get("new"), str) or not update["new"]:
                spec.fail(
                    f"ref update for {pipeline}:{branch} is missing a "
                    "non-empty 'new' head"
                )
            old = update.get("old")
            if old is not None and not isinstance(old, str):
                spec.fail(
                    f"ref update for {pipeline}:{branch} has a non-string "
                    "'old' head"
                )


def _validate_lineage(spec: OpSpec, meta: dict, blobs: list) -> None:
    query = meta.get("query")
    if query not in LINEAGE_QUERIES:
        spec.fail(f"'query' must be one of {LINEAGE_QUERIES}")
    if query in ("lineage", "consumers") and not isinstance(
        meta.get("ref"), str
    ):
        spec.fail(f"a {query!r} query needs a string 'ref'")
    if query == "impact":
        if not isinstance(meta.get("component"), str):
            spec.fail("an 'impact' query needs a string 'component'")
        version = meta.get("version")
        if version is not None and not isinstance(version, str):
            spec.fail("'version' must be null or a string")


#: The table, in wire-documentation order. Writes move chunk content and
#: get generous latency budgets; metadata reads are expected to be
#: near-instant. ``lineage`` is cacheable because closures over an
#: append-only ledger are a pure function of repository state (the
#: server's state token carries the ledger revision); ``get_chunks``
#: because a window is a pure function of the request and the chunk
#: store's membership (the token carries the store revision, and every
#: write op invalidates); ``stats`` and ``health`` change with every
#: request and never are.
OP_TABLE: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec(
            "manifest", _no_fields, p99_seconds=0.5,
            cacheable=True, preflight=True,
        ),
        OpSpec(
            "known_commits", _validate_known_commits, p99_seconds=0.5,
            cacheable=True, preflight=True,
        ),
        OpSpec(
            "missing_chunks", _validate_missing_chunks, p99_seconds=0.5,
            cacheable=True, preflight=True,
        ),
        OpSpec(
            "get_chunks", _validate_get_chunks, p99_seconds=2.0,
            cacheable=True,
        ),
        OpSpec(
            "put_chunks", _validate_blob_digests, p99_seconds=5.0,
            write=True, blob_digests_key="digests",
        ),
        OpSpec("fetch", _validate_fetch, p99_seconds=2.0, cacheable=True),
        OpSpec(
            "push", _validate_push, p99_seconds=5.0,
            write=True, blob_digests_key="chunk_digests",
        ),
        OpSpec("stats", _no_fields, p99_seconds=0.5, shed_exempt=True),
        OpSpec(
            "lineage", _validate_lineage, p99_seconds=1.0, cacheable=True,
        ),
        OpSpec("health", _no_fields, p99_seconds=0.5, shed_exempt=True),
    )
}

__all__ = ["LINEAGE_QUERIES", "OP_TABLE", "OpSpec"]
