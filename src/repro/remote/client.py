"""Remote handles: clone, fetch, push, and pull against a peer repository.

The client half of the sync protocol. A :class:`Remote` binds one local
``MLCask`` to one transport and implements the git-shaped verbs on top of
chunk-level content negotiation:

* **fetch** — pull the peer's commit graph (minus commits already held),
  recipes, and checkpoint records; then request *only* the chunks the
  local store lacks. Remote branch heads land as tracking refs named
  ``<remote>/<branch>``.
* **pull** — fetch, then move the local branch: fast-forward when the
  histories allow it, otherwise resolve the divergence with MLCask's own
  metric-driven merge against the tracking ref (the collaborative-merge
  story of paper section V, now spanning repositories).
* **push** — offer reachable commits, learn which the server lacks, send
  those plus exactly the chunks the server reports missing. The server
  only fast-forwards refs; a diverged push raises
  :class:`PushRejectedError` (from the client itself, after one
  ``manifest`` request, when the server's head is not in its history)
  and is resolved client-side via ``pull``.
* **clone** — bootstrap a fresh repository from a peer's manifest plus
  one full fetch (:func:`clone_repository`).

Component *executables* never cross the wire (they are live Python
callables); like :mod:`repro.core.persistence`, a registry re-binds
fetched commits to runnable components when the caller has them.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..errors import (
    NON_FAST_FORWARD,
    PushRejectedError,
    RemoteError,
    RemoteProtocolError,
    ServerOverloadedError,
)
from ..ops import OP_TABLE
from . import pack
from .protocol import decode_message, encode_message, raise_remote_error

#: Most chunk digests offered per get_chunks request. The server answers
#: with a prefix that fits its byte window, so re-sending the *entire*
#: remaining want list every round would make request traffic quadratic
#: in chunk count; a slice keeps each request bounded (~270 KB of JSON).
WANT_DIGESTS_PER_REQUEST = 4096


def checked_refs(meta: dict, what: str) -> dict[str, dict[str, str]]:
    """The ``refs`` of a manifest or fetch response, checked to map
    pipeline -> branch -> commit id before anything is imported or sent
    on their account; any other shape is a :class:`RemoteProtocolError`
    naming the response (``what``: ``"fetch response"``)."""
    refs = meta.get("refs")

    def refuse(where: str, value, expected: str):
        raise RemoteProtocolError(
            f"invalid {what}: {where} is {type(value).__name__}, not {expected}"
        )

    if not isinstance(refs, dict):
        refuse("refs", refs, "a map of pipelines")
    for pipeline, branches in refs.items():
        if not isinstance(branches, dict):
            refuse(f"refs[{pipeline!r}]", branches, "a map of branches")
        for branch, head in branches.items():
            if not isinstance(head, str):
                refuse(f"refs[{pipeline!r}][{branch!r}]", head, "a commit id")
    return refs


@dataclass
class FetchResult:
    """What one fetch moved."""

    refs: dict = field(default_factory=dict)
    commits_received: int = 0
    chunks_received: int = 0
    chunk_bytes_received: int = 0


@dataclass
class PushResult:
    """What one push moved (all zero when already up to date)."""

    up_to_date: bool = False
    commits_sent: int = 0
    chunks_sent: int = 0
    chunk_bytes_sent: int = 0
    updated: dict = field(default_factory=dict)


@dataclass
class PullResult:
    """How a pull advanced the local branch.

    ``action`` is one of ``"up-to-date"``, ``"created"``,
    ``"fast-forward"``, or ``"merged"``; ``outcome`` carries the
    :class:`MergeOutcome` when the divergence was merge-resolved.
    """

    action: str
    fetch: FetchResult
    outcome: object | None = None


class Remote:
    """One peer repository, addressed through a transport.

    ``max_pack_bytes`` bounds the chunk payload of any single wire
    message in either direction: fetches window their ``get_chunks``
    requests to it, and a push whose missing content exceeds it streams
    the chunks in ``put_chunks`` batches before the final ref update.

    ``overload_retries`` is how many times a request shed by an
    overloaded peer (:class:`~repro.errors.ServerOverloadedError`) is
    retried after backing off per the server's ``retry_after`` hint;
    the final attempt's error propagates. ``backoff`` (optional, a
    ``callable(seconds)``) replaces ``time.sleep`` — tests inject a
    recorder, schedulers could yield instead of blocking.
    """

    def __init__(
        self,
        repo,
        transport,
        name: str = "origin",
        max_pack_bytes: int = pack.DEFAULT_MAX_PACK_BYTES,
        overload_retries: int = 2,
        backoff=None,
    ):
        self.repo = repo
        self.transport = transport
        self.name = name
        self.max_pack_bytes = max_pack_bytes
        self.overload_retries = max(0, overload_retries)
        self._backoff = backoff if backoff is not None else time.sleep

    # ------------------------------------------------------------ plumbing
    def _backoff_seconds(self, retry_after: float, attempt: int) -> float:
        """Jittered exponential delay scaled by the server's hint.

        Full jitter over ``[0.5, 1.5) * retry_after * 2^attempt``: shed
        clients must not return in lockstep and re-create the very storm
        that shed them.
        """
        base = max(retry_after, 0.0) * (2 ** attempt)
        return base * (0.5 + random.random())

    def _call(self, meta: dict, blobs=None, sizes: list[int] | None = None):
        """One request and its decoded response (``blobs``/``sizes`` as
        :func:`~repro.remote.protocol.encode_message` takes them)."""
        op = meta.get("op")
        if op not in OP_TABLE:
            # Refused here, before a byte is framed: a method added to
            # this class cannot send an op the table does not declare.
            raise RemoteProtocolError(f"unknown operation {op!r}")
        payload = encode_message(meta, blobs, sizes)
        for attempt in range(self.overload_retries + 1):
            response = self.transport.call(payload)
            meta_out, blobs_out = decode_message(response)
            try:
                raise_remote_error(meta_out)
            except ServerOverloadedError as error:
                # A shed request has touched no repository state (the
                # hub's admission contract), so a verbatim retry is
                # always safe — including for writes.
                if attempt >= self.overload_retries:
                    raise
                self._backoff(self._backoff_seconds(error.retry_after, attempt))
                continue
            return meta_out, blobs_out

    def tracking_branch(self, branch: str) -> str:
        return f"{self.name}/{branch}"

    def manifest(self) -> dict:
        """The peer's refs and repository configuration."""
        meta, _ = self._call({"op": "manifest"})
        return meta

    def refs(self) -> dict:
        return checked_refs(self.manifest(), "manifest response")

    def stats(self) -> dict:
        """The peer's telemetry readout (requests, cache, storage, sizes).

        A plain read op: hub-hosted repositories report per-tenant views,
        and old servers answer with a typed unknown-operation error.
        """
        meta, _ = self._call({"op": "stats"})
        return meta["stats"]

    def health(self) -> dict:
        """The peer's sliding-window health report (per-op latency
        percentiles, error-budget burn, shedding state, SLO config).

        Schema-additive read op like :meth:`stats`: old servers answer
        with a typed unknown-operation error. On a hub, reaching this op
        at all means the token passed admission — the detailed report is
        deliberately not on the unauthenticated probe routes.
        """
        meta, _ = self._call({"op": "health"})
        return meta["health"]

    # ------------------------------------------------------------- lineage
    def lineage(self, ref: str) -> dict:
        """Upstream provenance closure of an output ref on the peer.

        Schema-additive read op like :meth:`stats`; raises a typed
        :class:`LineageNotFoundError` when the peer has no record of the
        ref. ``ref`` may be a unique digest prefix.
        """
        meta, _ = self._call({"op": "lineage", "query": "lineage", "ref": ref})
        return meta["lineage"]

    def lineage_consumers(self, ref: str) -> dict:
        """Direct downstream consumers of an output ref on the peer."""
        meta, _ = self._call({"op": "lineage", "query": "consumers", "ref": ref})
        return meta["lineage"]

    def impact(self, component: str, version: str | None = None) -> dict:
        """What-if analysis: what a component change would invalidate."""
        request = {"op": "lineage", "query": "impact", "component": component}
        if version is not None:
            request["version"] = version
        meta, _ = self._call(request)
        return meta["lineage"]

    # --------------------------------------------------------------- fetch
    def fetch(self, pipeline: str | None = None, branches=None) -> FetchResult:
        """Synchronize the peer's history and content into this repository.

        ``pipeline``/``branches`` narrow the want set; by default
        everything the peer advertises is fetched. Content transfer is
        chunk-negotiated: when nothing is missing locally, no chunk
        request is issued at all.
        """
        want = None
        if pipeline is not None:
            want = {pipeline: list(branches) if branches else []}
        have = [c.commit_id for c in self.repo.graph.all_commits()]
        meta, _ = self._call(
            {"op": "fetch", "want": want, "have_commits": have}
        )
        # Decoded before the first chunk lands: a response with a row that
        # does not decode, or refs of the wrong shape, changes nothing here.
        rows = pack.decode_pack(meta, "fetch response")
        refs = checked_refs(meta, "fetch response")

        # Chunk transfer is windowed to max_pack_bytes per response and
        # each batch is imported (integrity-verified) as it arrives, so
        # peak memory is one window, not the whole want set. Safe to land
        # incrementally: chunks without recipes are inert content-addressed
        # bytes — the consistency invariant is only that no *recipe* ever
        # points at chunks that did not arrive, so recipes, records, and
        # commits still import strictly after all content is in.
        wanted_chunks = self.repo.objects.chunks.missing(
            meta.get("chunk_digests", [])
        )
        new_chunks = 0
        chunk_bytes = 0
        remaining = list(wanted_chunks)
        while remaining:
            chunk_meta, chunk_blobs = self._call(
                {
                    "op": "get_chunks",
                    "digests": remaining[:WANT_DIGESTS_PER_REQUEST],
                    "max_bytes": self.max_pack_bytes,
                }
            )
            got = chunk_meta.get("digests", [])
            if not got:
                raise RemoteError(
                    "server sent an empty chunk batch while "
                    f"{len(remaining)} chunks were still wanted"
                )
            new_chunks += pack.import_content(self.repo, [], [], got, chunk_blobs)
            chunk_bytes += sum(len(b) for b in chunk_blobs)
            if got == remaining[: len(got)]:
                # The server contract: shipped chunks are a prefix of the
                # requested order — progress tracking is one slice, not a
                # set-difference scan over everything still wanted.
                remaining = remaining[len(got):]
                continue
            # Nonconforming peer: fall back to a scan, but never spin on a
            # response that made no progress at all.
            got_set = set(got)
            still_wanted = [d for d in remaining if d not in got_set]
            if len(still_wanted) == len(remaining):
                raise RemoteError(
                    "server sent chunks unrelated to the requested digests"
                )
            remaining = still_wanted

        # Commits import *last*: the server advertises content by commit
        # delta, so grafting commits before their content has safely
        # landed would make a retry after a failed transfer believe there
        # is nothing left to fetch.
        pack.import_specs(self.repo, rows["specs"])
        pack.import_content(
            self.repo, rows["recipes"], rows["records"], [], [], lineage=rows["lineage"]
        )
        added = pack.import_commits(self.repo, rows["commits"])
        result = FetchResult(
            refs=refs,
            commits_received=len(added),
            chunks_received=new_chunks,
            chunk_bytes_received=chunk_bytes,
        )

        for ref_pipeline, ref_branches in result.refs.items():
            for branch, head in ref_branches.items():
                self.repo.branches.set_head(
                    ref_pipeline, self.tracking_branch(branch), head
                )
        return result

    # ---------------------------------------------------------------- push
    def push(self, pipeline: str, branch: str = "master") -> PushResult:
        """Publish a branch; only missing commits and chunks cross the wire."""
        repo = self.repo
        head = repo.branches.head(pipeline, branch)
        observed = self.refs().get(pipeline, {}).get(branch)
        if observed == head:
            return PushResult(up_to_date=True)

        if observed is not None and observed not in repo.graph:
            # Our head cannot descend from a commit we do not hold, so the
            # server would refuse the update: say so before shipping a pack.
            raise PushRejectedError(pipeline, branch, NON_FAST_FORWARD)
        if observed is not None:
            # The server's head is in our history (the common case after a
            # clone or pull): everything it can reach, it has. No need to
            # ask — one round-trip and one O(history) id list saved.
            known = repo.graph.ancestors(observed)
        else:
            reachable = sorted(repo.graph.ancestors(head))
            meta, _ = self._call({"op": "known_commits", "ids": reachable})
            known = meta.get("known", [])
        commits = pack.commits_to_send(repo, head, known)
        recipes, records, chunk_digests = pack.content_of_commits(repo, commits)
        meta, _ = self._call(
            {"op": "missing_chunks", "digests": sorted(chunk_digests)}
        )
        missing = meta.get("missing", [])

        chunks = repo.objects.chunks
        absent = [digest for digest in missing if not chunks.contains(digest)]
        if absent:
            raise RemoteError(
                f"cannot push {pipeline}:{branch}: chunk "
                f"{absent[0][:12]} is referenced by a local recipe but "
                "not held (incomplete objects directory?); restore the "
                "content or re-clone before pushing"
            )

        # Window the content: if everything fits in one pack message the
        # push keeps its single-request shape; otherwise the chunks are
        # pre-seeded batch by batch with put_chunks (content-addressed, so
        # an interrupted push leaves only harmless orphans) and the final
        # push message carries metadata and the ref update alone. The
        # has_more flag keeps peak memory at one window: each batch is
        # shipped before the next is read, and a batch's chunks are read
        # one at a time into its frame.
        chunk_bytes_sent = 0
        push_digests: list = []
        push_sizes: list = []
        push_blobs: Iterable[bytes] = ()
        streamed = False
        for batch_digests, sizes, blobs, has_more in pack.iter_chunk_batches(
            chunks, missing, self.max_pack_bytes
        ):
            if not has_more and not streamed:
                # Sole batch: it rides inside the push message itself.
                push_digests, push_sizes, push_blobs = batch_digests, sizes, blobs
                break
            self._call({"op": "put_chunks", "digests": batch_digests}, blobs, sizes)
            streamed = True
            chunk_bytes_sent += sum(sizes)
        chunk_bytes_sent += sum(push_sizes)

        push_meta = pack.pack_meta(repo, commits, recipes, records, push_digests)
        push_meta["op"] = "push"
        push_meta["refs"] = {
            pipeline: {branch: {"old": observed, "new": head}}
        }
        # Advisory repository configuration: a multi-tenant hub receiving
        # the first push into an auto-created (still-empty) repository
        # adopts it, so later clones bootstrap with the right metric/seed.
        # Plain servers ignore the key (schema-additive, no version bump).
        push_meta["repo_config"] = {"metric": repo.metric, "seed": repo.seed}
        meta, _ = self._call(push_meta, push_blobs, push_sizes)
        return PushResult(
            commits_sent=len(commits),
            chunks_sent=len(missing),
            chunk_bytes_sent=chunk_bytes_sent,
            updated=meta.get("updated", {}),
        )

    # ---------------------------------------------------------------- pull
    def pull(
        self,
        pipeline: str,
        branch: str = "master",
        merge: bool = True,
        **merge_kwargs,
    ) -> PullResult:
        """Fetch, then advance the local branch to include the peer's work.

        Fast-forwards when the local branch has nothing of its own;
        otherwise — exactly the collaborative scenario the paper's merge
        exists for — the peer's head (as tracking ref) is merged into the
        local branch with the metric-driven merge, producing a commit
        that a subsequent :meth:`push` fast-forwards onto the server.
        ``merge_kwargs`` pass through to :meth:`MLCask.merge` (mode,
        search, budget, ...).
        """
        fetched = self.fetch(pipeline, [branch])
        remote_head = fetched.refs.get(pipeline, {}).get(branch)
        if remote_head is None:
            raise RemoteError(
                f"remote has no branch {branch!r} for pipeline {pipeline!r}"
            )

        repo = self.repo
        if not repo.branches.has_branch(pipeline, branch):
            repo.branches.set_head(pipeline, branch, remote_head)
            return PullResult(action="created", fetch=fetched)
        local_head = repo.branches.head(pipeline, branch)
        if local_head == remote_head:
            return PullResult(action="up-to-date", fetch=fetched)
        if repo.graph.is_ancestor(local_head, remote_head):
            repo.branches.set_head(pipeline, branch, remote_head)
            return PullResult(action="fast-forward", fetch=fetched)

        if not merge:
            raise RemoteError(
                f"{pipeline}:{branch} diverged from {self.name}; "
                "pull with merge=True to resolve via the metric-driven merge"
            )
        outcome = repo.merge(
            pipeline, branch, self.tracking_branch(branch), **merge_kwargs
        )
        return PullResult(action="merged", fetch=fetched, outcome=outcome)


def clone_repository(
    transport,
    registry=None,
    name: str = "origin",
    author: str | None = None,
    max_pack_bytes: int | None = None,
):
    """Bootstrap a new repository from a peer; returns the ``MLCask``.

    The peer's metric/seed configuration, full history, content, and
    checkpoint index are replicated; every advertised branch is checked
    out at the peer's head. The attached :class:`Remote` is registered
    under ``name`` (reachable as ``repo.remote(name)``) so the usual
    push/pull cycle continues from the clone.
    """
    from ..core.repository import MLCask

    remote_probe = Remote(repo=None, transport=transport, name=name)
    manifest = remote_probe.manifest()
    refs = checked_refs(manifest, "manifest response")
    kwargs = {"metric": manifest["metric"], "seed": manifest["seed"]}
    if author is not None:
        kwargs["author"] = author
    repo = MLCask(**kwargs)
    if registry is not None:
        repo.registry = registry
    remote = repo.add_remote(name, transport, max_pack_bytes=max_pack_bytes)
    remote.fetch()
    for pipeline, branches in refs.items():
        for branch, head in branches.items():
            repo.branches.set_head(pipeline, branch, head)
    return repo
