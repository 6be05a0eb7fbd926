"""Repository server: answers sync requests against a live ``MLCask``.

The server side of the wire protocol. One :class:`RepositoryServer` wraps
one repository and handles the ten operations — ``manifest``,
``known_commits``, ``missing_chunks``, ``get_chunks``, ``put_chunks``,
``fetch``, ``push``, ``stats`` (telemetry readout), ``lineage``
(provenance queries) and ``health`` (sliding-window health report) —
entirely in terms of pack assembly/import from
:mod:`repro.remote.pack`. It is transport-agnostic: :class:`LocalTransport`
calls :meth:`handle_bytes` directly, and :func:`serve` exposes the same
entry point over a real socket with the stdlib HTTP server (no external
dependencies, matching the repository's no-new-deps constraint). That
HTTP front — :class:`SyncHTTPServer` running :class:`BaseRPCHandler` —
is the hub's too (:func:`repro.hub.hub.serve_hub`): one server class and
one handler for both endpoints, told apart only by the data they are
constructed with.

Telemetry: every request is counted, timed, and sized into the server's
:class:`~repro.obs.metrics.MetricsRegistry` (per-op latency/byte
histograms, handler failures, cache hit/miss counters, reader/writer
lock wait time) — the one stream the health model reads. The registry
defaults to the process-wide null singleton — an unobserved server pays
only empty method calls — while :func:`serve` installs a real one so the
HTTP endpoint can answer ``GET /metrics`` in Prometheus text format.

Concurrency model: read operations run in parallel under the shared side
of a reader-writer lock; only the mutating operations (``push``,
``put_chunks``) take the exclusive side. Read responses are additionally
served from a bounded cache keyed by the request bytes — every response
is a deterministic function of (request, repository state), so the cache
is exact and is invalidated wholesale whenever state mutates. A response
is stored on its second request, so one-off reads pin no memory.

Push semantics follow git: received commits and chunks are grafted first
(content-addressed, so duplicates are no-ops and orphans are harmless —
they become reachable once the client's eventual merge lands), but a ref
only moves if the update is a *fast-forward* from the server's current
head. Anything else is answered with a typed rejection the client
resolves via pull + metric-driven merge.

Robustness: :meth:`RepositoryServer.handle_bytes` never lets an exception
escape — malformed requests are schema-validated up front and answered
with typed :class:`RemoteProtocolError` responses, and anything
unexpected is wrapped the same way, so one bad client cannot take a
handler thread (or the keep-alive connection behind it) down.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.server
import json
import threading
import time
from collections import OrderedDict

from ..errors import (
    CommitNotFoundError,
    NON_FAST_FORWARD,
    MLCaskError,
    PushRejectedError,
    RemoteError,
    RemoteProtocolError,
)
from ..obs import metrics as obs_metrics
from ..obs.health import HealthMonitor
from ..obs.metrics import NULL_METRIC, MetricsRegistry
from ..obs.slo import SLOConfig
from ..ops import OP_TABLE
from . import pack
from .protocol import (
    OPS,
    WRITE_OPS,
    decode_message,
    encode_message,
    error_response,
)
from .transport import RPC_PATH

#: The Prometheus text scrape, answered by both HTTP endpoints.
METRICS_PATH = "/metrics"

#: Kubernetes-style probe routes, unauthenticated on both endpoints:
#: ``/healthz`` answers liveness (reaching the handler *is* the signal),
#: ``/readyz`` answers 200/503 from the health model's readiness
#: decision. Deliberately boolean-plus-reasons only — the *detailed*
#: health report travels over the authenticated ``health`` RPC, because
#: it names tenants and ops.
HEALTHZ_PATH = "/healthz"
READYZ_PATH = "/readyz"

#: Read operations whose responses are served from the response cache
#: (the ``cacheable`` column of :data:`repro.ops.OP_TABLE`).
CACHEABLE_OPS = frozenset(
    spec.name for spec in OP_TABLE.values() if spec.cacheable
)


class RWLock:
    """A reader-writer lock: many readers or one writer, writer preference.

    Readers queue behind a *waiting* writer (not only an active one) so a
    steady stream of reads cannot starve pushes indefinitely.

    Neither side is re-entrant. A thread that holds one side and asks for
    either side again would wait on itself forever — a read -> write
    upgrade for its own read to end, a read under its own write for the
    writer to leave — so the request raises :class:`RuntimeError` instead.
    Per-repo write exclusion is the designed persistence point, so
    blocking I/O under either side is expected.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._holder = threading.local()  # .side: the side this thread holds
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def _refuse_reentry(self, side: str) -> None:
        held = getattr(self._holder, "side", None)
        if held is not None:
            raise RuntimeError(
                f"RWLock is not re-entrant: this thread holds the {held} "
                f"side and asked for the {side} side, which would deadlock"
            )

    @contextlib.contextmanager
    def read_locked(self):
        self._refuse_reentry("read")
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1
        self._holder.side = "read"
        try:
            yield
        finally:
            self._holder.side = None
            with self._cond:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write_locked(self):
        self._refuse_reentry("write")
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
                self._writer_active = True
            finally:
                self._writers_waiting -= 1
        self._holder.side = "write"
        try:
            yield
        finally:
            self._holder.side = None
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


class ResponseCache:
    """Bounded LRU of encoded responses, keyed by request-payload digest.

    Every entry carries the repository *state token* (the tuple of store
    revision counters) it was computed under; a hit requires the token to
    still match, so entries go stale the moment anything mutates the
    repository — through a push or out-of-band (a live repo served while
    its owner keeps committing). The token is captured under the read
    lock, where writers are excluded, so an entry can never claim a newer
    state than its response reflects.

    Admission on the second offer: :meth:`put` stores a response only
    when its key was already offered once since the last
    :meth:`invalidate`. A request nobody repeats (a late clone's chunk
    windows just before the next push) costs one 32-byte key in a
    key-only LRU of ``max_entries`` slots, not up to a window of pinned
    bytes; a request that is repeated is answered from memory from its
    third arrival on.
    """

    #: Total cached-response bytes across all entries. Entry *count* alone
    #: is no bound: fetch responses scale with history depth, and distinct
    #: have_commits sets hash to distinct keys — 128 slots of multi-MB
    #: packs would pin real memory.
    DEFAULT_MAX_TOTAL_BYTES = 64 * 1024 * 1024

    def __init__(
        self,
        max_entries: int = 128,
        max_total_bytes: int = DEFAULT_MAX_TOTAL_BYTES,
    ):
        self.max_entries = max(0, max_entries)
        self.max_total_bytes = max(0, max_total_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, tuple[tuple, bytes]] = OrderedDict()
        #: Keys offered once and not stored (values unused).
        self._offered: OrderedDict[bytes, None] = OrderedDict()
        self._total_bytes = 0
        self.hits = 0
        self.misses = 0
        # Registry mirrors (bound by the owning server); null by default
        # so an unobserved cache costs two empty calls per lookup.
        self._hits_metric = NULL_METRIC
        self._misses_metric = NULL_METRIC

    def bind_metrics(self, hits_metric, misses_metric) -> None:
        """Mirror hit/miss counts into registry counter series."""
        self._hits_metric = hits_metric
        self._misses_metric = misses_metric

    def get(self, key: bytes, token: tuple) -> bytes | None:
        if not self.max_entries:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != token:
                self.misses += 1
                self._misses_metric.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._hits_metric.inc()
            return entry[1]

    def put(self, key: bytes, token: tuple, value: bytes) -> None:
        if not self.max_entries or len(value) > self.max_total_bytes:
            return
        with self._lock:
            if key not in self._entries:
                if key not in self._offered:
                    self._offered[key] = None
                    if len(self._offered) > self.max_entries:
                        self._offered.popitem(last=False)
                    return
                del self._offered[key]
            old = self._entries.pop(key, None)
            if old is not None:
                self._total_bytes -= len(old[1])
            self._entries[key] = (token, value)
            self._total_bytes += len(value)
            while (
                len(self._entries) > self.max_entries
                or self._total_bytes > self.max_total_bytes
            ):
                _, (_, evicted) = self._entries.popitem(last=False)
                self._total_bytes -= len(evicted)

    def invalidate(self) -> None:
        with self._lock:
            self._entries.clear()
            self._offered.clear()
            self._total_bytes = 0

    def snapshot(self) -> dict:
        """Consistent counter cut (hits/misses/occupancy) for ``stats``."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "entries": len(self._entries),
                "bytes": self._total_bytes,
            }


def validate_request(op: str, meta: dict, blobs: list) -> None:
    """Schema-check a request before any handler state is touched.

    Everything a handler would otherwise discover as a ``KeyError`` or
    ``TypeError`` mid-operation is rejected here as a typed
    :class:`RemoteProtocolError` instead. The checks are the op's
    validator in :data:`repro.ops.OP_TABLE`.
    """
    OP_TABLE[op].validate(meta, blobs)


def _bind_handlers(namespace: dict) -> dict[str, str]:
    """``op -> handler attribute`` for a class body, checked both ways.

    Called once while the handler class is being defined, so drift
    between the op table and the ``_op_*`` methods is an import error
    rather than a request-time ``AttributeError`` (or a handler no
    client can reach).
    """
    handlers = {op: f"_op_{op}" for op in OP_TABLE}
    defined = {name for name in namespace if name.startswith("_op_")}
    if defined != set(handlers.values()):
        raise TypeError(
            "op table and handlers disagree: "
            f"{sorted(defined ^ set(handlers.values()))}"
        )
    return handlers


class RepositoryServer:
    """Protocol endpoint over one repository.

    ``on_change`` (optional) is invoked with the repository after every
    ref-moving push — directory-backed remotes pass a save callback so
    pushes persist; in-memory servers pass nothing. ``max_pack_bytes``
    windows ``get_chunks`` responses; ``cache_entries`` bounds the read
    response cache (0 disables it).
    """

    def __init__(
        self,
        repo,
        on_change=None,
        *,
        max_pack_bytes: int = pack.DEFAULT_MAX_PACK_BYTES,
        cache_entries: int = 128,
        registry=None,
        metric_labels: dict | None = None,
        health_monitor: HealthMonitor | None = None,
    ):
        self.repo = repo
        self.on_change = on_change
        self.max_pack_bytes = max_pack_bytes
        self._rwlock = RWLock()
        self.cache = ResponseCache(cache_entries)
        self._count_lock = threading.Lock()
        #: Requests this endpoint has answered — including HTTP-level
        #: rejections the handler never forwards to handle_bytes (wrong
        #: path, bad Content-Length, oversized body); bounded serving
        #: (``repro serve --requests N``) keys off this, and an uncounted
        #: rejection would leave it waiting forever.
        self.requests_handled = 0
        # Telemetry sink: defaults to the process-wide (usually null)
        # singleton so an unobserved server pays only empty calls; a
        # hub passes its registry plus {tenant, repo} labels so
        # every series is attributable. Children are resolved once here
        # — the per-request path touches plain attributes, not the
        # registry's family tables.
        registry = (
            registry if registry is not None else obs_metrics.default_registry()
        )
        self.registry = registry
        labels = dict(metric_labels or {})
        self._tenant = str(labels.get("tenant", "-"))
        self._repo_label = str(labels.get("repo", "-"))
        ids = {"tenant": self._tenant, "repo": self._repo_label}
        requests_total = registry.counter(
            "repro_requests_total",
            "Requests handled, by operation",
            ("op", "tenant", "repo"),
        )
        request_seconds = registry.histogram(
            "repro_request_seconds",
            "End-to-end request handling latency",
            ("op", "tenant", "repo"),
        )
        request_errors = registry.counter(
            "repro_request_errors_total",
            "Admitted, validated requests whose handler raised",
            ("op", "tenant", "repo"),
        )
        request_bytes = registry.histogram(
            "repro_request_bytes",
            "Request (in) and response (out) message sizes",
            ("direction", "op", "tenant", "repo"),
            buckets=obs_metrics.DEFAULT_BYTES_BUCKETS,
        )
        tracked_ops = (*OPS, "invalid")
        self._m_requests = {
            op: requests_total.labels(op=op, **ids) for op in tracked_ops
        }
        self._m_seconds = {
            op: request_seconds.labels(op=op, **ids) for op in tracked_ops
        }
        self._m_errors = {op: request_errors.labels(op=op, **ids) for op in OPS}
        self._m_bytes = {
            (direction, op): request_bytes.labels(
                direction=direction, op=op, **ids
            )
            for op in tracked_ops
            for direction in ("in", "out")
        }
        lock_wait = registry.histogram(
            "repro_lock_wait_seconds",
            "Time spent waiting to acquire the repository RWLock",
            ("mode", "tenant", "repo"),
        )
        self._m_lock_wait = {
            mode: lock_wait.labels(mode=mode, **ids)
            for mode in ("read", "write")
        }
        self.cache.bind_metrics(
            registry.counter(
                "repro_cache_hits_total",
                "Read-response cache hits",
                ("tenant", "repo"),
            ).labels(**ids),
            registry.counter(
                "repro_cache_misses_total",
                "Read-response cache misses (including stale tokens)",
                ("tenant", "repo"),
            ).labels(**ids),
        )
        # Chunk I/O flows into the same registry, attributed to this
        # repository — a hub's /metrics shows per-tenant chunk bytes.
        repo.objects.chunks.stats.bind_registry(
            registry, self._tenant, self._repo_label
        )
        # Same attribution for lineage appends: pushed/recorded ledger
        # rows surface as repro_lineage_records_total per tenant+repo.
        lineage = getattr(repo, "lineage", None)
        if lineage is not None:
            lineage.bind_registry(registry, self._tenant, self._repo_label)
        # Health model over this server's own telemetry; a hub passes its
        # shared monitor instead so the deployment-wide view answers the
        # ``health`` op for every hosted repo. Defaults to the stock SLO
        # over this registry — a null sink just reports ready.
        self.health_monitor = (
            health_monitor
            if health_monitor is not None
            else HealthMonitor(registry=registry)
        )

    def count_request(self) -> None:
        with self._count_lock:
            self.requests_handled += 1

    @contextlib.contextmanager
    def maintenance(self):
        """Exclusive access to the repository outside the protocol.

        Hosts use this for maintenance that mutates repository state
        without a wire request — garbage collection, offline pruning —
        so it cannot interleave with in-flight reads or pushes. The
        response cache is invalidated on exit (the revision tokens catch
        most mutations; the wholesale clear catches all)."""
        with self._rwlock.write_locked():
            try:
                yield self.repo
            finally:
                self.cache.invalidate()

    # ------------------------------------------------------------ dispatch
    def handle_bytes(self, payload: bytes, decoded=None) -> bytes:
        """Decode one request, run it, encode the response.

        Never raises: library errors travel back as typed error messages
        (the client re-raises them locally), and unexpected failures are
        wrapped as :class:`RemoteProtocolError` responses so a malformed
        request can never kill the handler thread serving it.

        ``decoded`` (optional) is the ``(meta, blobs)`` pair for
        ``payload`` when the caller already decoded it — a hub inspects
        every admitted request and must not pay the blob-slicing cost
        twice. ``payload`` is still required: cache keys hash the raw
        bytes.

        A request that passed validation and whose handler then raised —
        typed or not — counts once in ``repro_request_errors_total``:
        the failure signal of the health model's error-budget burn.
        """
        self.count_request()
        started = time.perf_counter()
        op = "invalid"
        try:
            meta, blobs = (
                decoded if decoded is not None else decode_message(payload)
            )
            requested = meta.get("op")
            if requested not in OPS:
                raise RemoteProtocolError(f"unknown operation {requested!r}")
            op = requested
            validate_request(op, meta, blobs)
            try:
                response = self._dispatch(op, meta, blobs, payload)
            except Exception:
                self._m_errors[op].inc()
                raise
        except MLCaskError as error:
            response = error_response(error)
        except Exception as error:  # noqa: BLE001 - last-resort containment
            response = error_response(
                RemoteProtocolError(
                    f"internal server error: {type(error).__name__}: {error}"
                )
            )
        elapsed = time.perf_counter() - started
        self._m_requests[op].inc()
        self._m_seconds[op].observe(elapsed)
        self._m_bytes[("in", op)].observe(len(payload))
        self._m_bytes[("out", op)].observe(len(response))
        return response

    def _dispatch(self, op: str, meta: dict, blobs: list, payload: bytes) -> bytes:
        """Route one validated operation through locking and the cache."""
        handler = getattr(self, self._HANDLERS[op])
        if op in WRITE_OPS:
            with self._locked("write"):
                try:
                    return handler(meta, blobs)
                finally:
                    # Even a failed/rejected write may have grafted
                    # content before raising; the revision tokens catch
                    # most of that, the wholesale clear catches all.
                    self.cache.invalidate()
        if op in CACHEABLE_OPS:
            key = hashlib.sha256(payload).digest()
            cached = self.cache.get(key, self._state_token())
            if cached is not None:
                return cached
            with self._locked("read"):
                token = self._state_token()
                response = handler(meta, blobs)
            self.cache.put(key, token, response)
            return response
        with self._locked("read"):
            return handler(meta, blobs)

    @contextlib.contextmanager
    def _locked(self, mode: str):
        """Take the RWLock's ``mode`` side, observing the acquisition wait.

        The wait lands in the ``repro_lock_wait_seconds`` histogram: how
        long a push sat behind readers (or a read behind a writer).
        """
        started = time.perf_counter()
        acquire = (
            self._rwlock.write_locked()
            if mode == "write"
            else self._rwlock.read_locked()
        )
        with acquire:
            waited = time.perf_counter() - started
            self._m_lock_wait[mode].observe(waited)
            yield

    def _state_token(self) -> tuple:
        """Cheap fingerprint of everything read responses depend on.

        Specs are covered by their count: spec registration is add-only
        (a conflicting redefinition raises), so any change moves it.
        """
        repo = self.repo
        lineage = getattr(repo, "lineage", None)
        return (
            repo.graph.revision,
            repo.branches.revision,
            repo.objects.revision,
            repo.objects.chunks.revision,
            repo.checkpoints.revision,
            len(repo._specs),
            # Lineage answers depend on the ledger too: a new record (or a
            # commit back-fill / GC collected flag) must expire cached
            # lineage responses, and the fetch pack now carries lineage.
            lineage.revision if lineage is not None else 0,
        )

    # ---------------------------------------------------------- operations
    def _public_branches(self, pipeline: str) -> list[str]:
        """Branches this repository advertises: its own, not the tracking
        refs (``origin/master``) it keeps for *its* remotes — re-exporting
        those would nest another ``origin/`` per clone hop."""
        return [
            branch
            for branch in self.repo.branches.branches(pipeline)
            if "/" not in branch
        ]

    def _op_manifest(self, meta: dict, blobs) -> bytes:
        """Refs plus repository configuration (for clone bootstrap)."""
        repo = self.repo
        refs = {
            pipeline: {
                branch: repo.branches.head(pipeline, branch)
                for branch in self._public_branches(pipeline)
            }
            for pipeline in repo.branches.pipelines()
        }
        return encode_message(
            {"refs": refs, "metric": repo.metric, "seed": repo.seed}
        )

    def _op_known_commits(self, meta: dict, blobs) -> bytes:
        """Which of the offered commit ids the server already holds."""
        known = [c for c in meta.get("ids", []) if c in self.repo.graph]
        return encode_message({"known": known})

    def _op_missing_chunks(self, meta: dict, blobs) -> bytes:
        """The have/want negotiation: digests the server lacks."""
        missing = self.repo.objects.chunks.missing(meta.get("digests", []))
        return encode_message({"missing": missing})

    def _op_get_chunks(self, meta: dict, blobs) -> bytes:
        """Ship requested chunks as raw framed blobs, windowed.

        At most ``min(max_bytes, max_pack_bytes)`` of payload per response
        (the server's window applies even when the request names none —
        the memory bound must hold against non-cooperating clients), but
        always at least one chunk, so progress is guaranteed. The
        ``remaining`` count tells the client how many of its wanted
        digests did not fit; it re-requests exactly those. Shipped chunks
        are always a *prefix* of the requested order — clients rely on
        this for O(batch) progress tracking.
        """
        digests = meta.get("digests", [])
        requested = meta.get("max_bytes")
        budget = (
            min(requested, self.max_pack_bytes)
            if requested is not None
            else self.max_pack_bytes
        )
        send_digests, sizes, payloads, _ = next(
            pack.iter_chunk_batches(self.repo.objects.chunks, digests, budget),
            ([], [], (), False),
        )
        return encode_message(
            {
                "digests": send_digests,
                "remaining": len(digests) - len(send_digests),
            },
            payloads,
            sizes,
        )

    def _op_put_chunks(self, meta: dict, blobs) -> bytes:
        """Graft verified chunks ahead of a batched push.

        Content-addressed, so replays are no-ops and chunks orphaned by an
        interrupted push are harmless — they become reachable when the
        push's final message lands (and are re-offered by the client's
        next negotiation if it never does). ``on_change`` is *not* fired:
        refs have not moved, and the eventual push persists everything.
        """
        new = pack.import_content(
            self.repo, [], [], meta.get("digests", []), blobs
        )
        return encode_message({"ok": True, "new_chunks": new})

    def _op_stats(self, meta: dict, blobs) -> bytes:
        """Telemetry readout: the long-orphaned counters, over the wire.

        Surfaces what used to be reachable only in-process — response
        cache hit rate, chunk-store byte counters, request totals — so
        a client (or ``repro stats``) can assert on server effectiveness
        instead of inferring it from wall-clock. Served under the read
        lock like any other read; deliberately *not* cacheable (it
        changes with every request).
        """
        repo = self.repo
        lineage = getattr(repo, "lineage", None)
        return encode_message(
            {
                "stats": {
                    "requests_handled": self.requests_handled,
                    "cache": self.cache.snapshot(),
                    "storage": repo.objects.chunks.stats.snapshot(),
                    "repository": {
                        "commits": len(repo.graph),
                        "pipelines": len(repo.branches.pipelines()),
                        "checkpoints": len(repo.checkpoints.records()),
                    },
                    "lineage": {
                        "records": len(lineage) if lineage is not None else 0,
                        "collected": (
                            lineage.collected_count()
                            if lineage is not None
                            else 0
                        ),
                    },
                    # Schema-additive summary; the full report (per-op
                    # percentiles, burn, SLO config) is the health op's.
                    "health": self.health_monitor.summary(),
                }
            }
        )

    def _op_health(self, meta: dict, blobs) -> bytes:
        """The full sliding-window health report (:mod:`repro.obs.health`).

        A read like ``stats`` — served under the shared lock, never
        cached (the window slides with every tick). On a hub this is
        the deployment-wide monitor, and reaching it at all means the
        request passed token authentication, which is why the detailed
        report lives here rather than on the unauthenticated probes.
        """
        return encode_message({"health": self.health_monitor.health()})

    def _op_lineage(self, meta: dict, blobs) -> bytes:
        """Provenance queries over the repository's lineage ledger.

        A read like ``stats`` — served under the shared lock, and (unlike
        ``stats``) response-cache eligible because every answer is a pure
        function of repository state, which the state token now covers via
        the ledger revision. Unknown refs/components surface as
        typed :class:`LineageNotFoundError` responses, not prose.
        """
        from ..provenance import queries

        repo = self.repo
        query = meta["query"]
        if query == "lineage":
            result = queries.lineage_of(repo, meta["ref"])
        elif query == "consumers":
            result = queries.consumers_of(repo, meta["ref"])
        else:  # "impact" — validate_request admits no other form
            result = queries.impact_of(
                repo, meta["component"], version=meta.get("version")
            )
        return encode_message({"lineage": result})

    def _op_fetch(self, meta: dict, blobs) -> bytes:
        """Commit-graph sync: everything reachable from the wanted refs
        that the client does not claim to have. Content (chunks) is
        negotiated separately so unchanged outputs never re-transfer."""
        repo = self.repo
        want = meta.get("want")  # {pipeline: [branch, ...]} or None = all
        have = set(meta.get("have_commits", []))

        refs: dict[str, dict[str, str]] = {}
        pipelines = (
            sorted(want) if want is not None else repo.branches.pipelines()
        )
        commits: dict[str, object] = {}
        for pipeline in pipelines:
            branches = (
                want[pipeline]
                if want is not None and want[pipeline]
                else self._public_branches(pipeline)
            )
            for branch in branches:
                head = repo.branches.head(pipeline, branch)
                refs.setdefault(pipeline, {})[branch] = head
                for commit in pack.commits_to_send(repo, head, have):
                    commits[commit.commit_id] = commit
        ordered = sorted(commits.values(), key=lambda c: c.sequence)
        recipes, records, chunk_digests = pack.content_of_commits(repo, ordered)
        meta_out = pack.pack_meta(repo, ordered, recipes, records, chunk_digests)
        meta_out["refs"] = refs
        return encode_message(meta_out)

    def _op_push(self, meta: dict, blobs) -> bytes:
        """Graft a pack, then fast-forward the offered ref updates.

        Ref updates carry the head the client *observed* (``old``): a
        mismatch with the server's current head means the branch moved
        since the client negotiated — rejected the same way a
        non-fast-forward is, so no update is ever lost silently.
        """
        repo = self.repo
        updates = meta.get("refs", {})
        # Every row decodes before anything imports, or the push is
        # refused whole.
        rows = pack.decode_pack(meta, "push request")
        conflict = pack.conflicting_spec(repo, rows["specs"])
        if conflict is not None:
            raise RemoteError(conflict)
        # Every commit a commit row names as a parent, and every new head,
        # must be in the pack or held: decided from the rows (in the order
        # import_commits grafts them) before anything imports, so a push
        # that would fail at the graph leaves no trace.
        offered: set[str] = set()
        for commit in sorted(rows["commits"], key=lambda c: c.sequence):
            for parent in commit.parents:
                if parent not in offered and parent not in repo.graph:
                    raise CommitNotFoundError(parent)
            offered.add(commit.commit_id)
        # The ref checks need the pack's commit rows at most, so they run
        # before the pack is imported: a push that lost a race, or whose
        # branch diverged, is refused without its chunks, recipes or
        # commits landing anywhere.
        for pipeline, branches in updates.items():
            for branch, update in branches.items():
                current = (
                    repo.branches.head(pipeline, branch)
                    if repo.branches.has_branch(pipeline, branch)
                    else None
                )
                if current != update.get("old"):
                    raise PushRejectedError(
                        pipeline, branch,
                        "remote branch moved since refs were negotiated "
                        "(stale old head); fetch and retry",
                    )
                new_head = update["new"]
                if new_head not in offered and new_head not in repo.graph:
                    raise PushRejectedError(
                        pipeline, branch,
                        f"new head {new_head[:12]} is neither in the pack "
                        "nor held",
                    )
                if not pack.is_fast_forward_update(
                    repo, current, new_head, rows["commits"]
                ):
                    raise PushRejectedError(pipeline, branch, NON_FAST_FORWARD)
        # Content-completeness gate, before anything imports: every chunk a
        # pushed recipe references must either ride in this message or
        # already be held (landed by put_chunks pre-seeding or earlier
        # syncs). Without this, a schema-valid push could register recipes
        # pointing at content the server was never given — poisoning every
        # later fetch of that branch with an unservable chunk digest.
        incoming = set(meta.get("chunk_digests", []))
        referenced = {
            digest for recipe in rows["recipes"] for digest in recipe.chunk_digests
        }
        absent = repo.objects.chunks.missing(sorted(referenced - incoming))
        if absent:
            raise RemoteProtocolError(
                f"push references {len(absent)} chunks neither included in "
                f"the pack nor held by the server (first: {absent[0][:12]}); "
                "negotiate with missing_chunks and resend"
            )
        # Content lands first (the mirror of the client-fetch ordering):
        # if a blob fails its integrity check here, no spec, recipe or
        # commit has been registered yet — grafting commits first would
        # leave orphans a retry push could fast-forward onto even though
        # their content never arrived, the poisoned state the gate above
        # exists to stop. Chunks verified before the bad one stay in the
        # store unreferenced until GC collects them.
        new_chunks = pack.import_content(
            repo,
            rows["recipes"],
            rows["records"],
            meta.get("chunk_digests", []),
            blobs,
            lineage=rows["lineage"],
        )
        pack.import_specs(repo, rows["specs"])
        pack.import_commits(repo, rows["commits"])

        # Every update was validated above, before any import: a push is
        # atomic. (Heads cannot have moved since: the whole push runs
        # under the exclusive lock.)
        applied = {}
        for pipeline, branches in updates.items():
            for branch, update in branches.items():
                repo.branches.set_head(pipeline, branch, update["new"])
                applied.setdefault(pipeline, {})[branch] = update["new"]
        if self.on_change is not None:
            self.on_change(repo)
        return encode_message({"ok": True, "updated": applied, "new_chunks": new_chunks})

    #: op -> ``_op_<name>`` attribute, bound from the op table while the
    #: class is defined; a missing or stray handler fails the import.
    _HANDLERS = _bind_handlers(locals())


# ------------------------------------------------------------- HTTP serve
class BaseRPCHandler(http.server.BaseHTTPRequestHandler):
    """The one request handler of both HTTP endpoints: hardened
    RPC-over-POST plus the GET readouts.

    Keep-alive discipline: a handled request — even one that produced a
    typed error response — leaves the connection reusable. Anything that
    puts the connection in an unknowable state (truncated body, chunked
    framing, a failure outside the dispatch callable, a write error)
    closes it, and internal failures are reported as HTTP 500 with an
    encoded error body the client surfaces instead of a bare dropped
    socket.

    Nothing here knows which endpoint it serves: what differs between
    ``serve`` and ``serve_hub`` is data on the :class:`SyncHTTPServer`
    running it — its ``route`` and three strings. Content-Length
    validation, the ``Transfer-Encoding`` 411, the ``max_request_bytes``
    413, short-read teardown, the last-resort 500 and the
    ``request_limit`` keep-alive cutoff live here once, so a hardening
    fix can never reach one endpoint and miss the other.
    """

    server: SyncHTTPServer
    protocol_version = "HTTP/1.1"
    #: Response headers and body go out in separate writes; with Nagle on,
    #: the second write stalls behind the peer's delayed ACK (~40ms per
    #: request on Linux loopback). RPC traffic wants the segments now.
    disable_nagle_algorithm = True
    #: Socket read timeout: an idle keep-alive connection is dropped after
    #: this many seconds (the client transparently reconnects), so handler
    #: threads never wait forever on a silent peer. Overridden per server
    #: by the server's ``idle_timeout``.
    timeout = 60.0

    def setup(self):
        self.server_version = self.server.server_version
        if self.server.idle_timeout is not None:
            self.timeout = self.server.idle_timeout
        super().setup()

    def do_GET(self):  # noqa: N802 - http.server naming convention
        """GET routes: ``/metrics`` (Prometheus text) and ``/healthz`` /
        ``/readyz`` (liveness and readiness probes, JSON).

        ``/metrics`` renders from the server's registry; the probes are
        deliberately unauthenticated (an orchestrator cannot carry tenant
        tokens) and carry only a boolean plus reasons. Every other GET
        path is a 404; all of them count against a
        bounded-serve budget like any other request — the budget is a
        request budget, not an RPC budget.
        """
        server = self.server
        server.endpoint.count_request()
        path = self.path.rstrip("/")
        if path == HEALTHZ_PATH:
            # Liveness: producing this response is the proof.
            self._answer(
                200, "application/json", json.dumps({"alive": True}).encode()
            )
            return
        if path == READYZ_PATH:
            monitor = server.health_monitor
            ready, reasons = (True, []) if monitor is None else monitor.ready()
            self._answer(
                200 if ready else 503,
                "application/json",
                json.dumps(
                    {"ready": ready, "reasons": reasons}, sort_keys=True
                ).encode(),
            )
            return
        if path == METRICS_PATH:
            registry = server.metrics_registry
            self._answer(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                (registry.render_prometheus() if registry is not None else "").encode(),
            )
            return
        self.send_error(404, server.not_found)

    def do_POST(self):  # noqa: N802 - http.server naming convention
        server = self.server
        dispatch = server.route(self.path, self.headers)
        if dispatch is None:
            self._refuse(404, server.not_found)
            return
        if "Transfer-Encoding" in self.headers:
            # Only Content-Length framing is spoken here. Answering the
            # body as empty would leave its chunks on the socket to be
            # parsed as the next request line: one request, two answers.
            self._refuse(411, "send the body with a Content-Length")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = -1
        if length < 0:
            self._refuse(400, "bad Content-Length")
            return
        limit = server.max_request_bytes
        if limit is not None and length > limit:
            self._refuse(413, "request exceeds the server's size limit")
            return
        try:
            payload = self.rfile.read(length)
        except OSError:
            # Stalled mid-body past the idle timeout — same treatment as
            # the short-read below (TimeoutError is an OSError).
            payload = b""
        if len(payload) < length:
            # The peer hung up (or stalled) mid-body; there is no request
            # to answer and no sane way to keep framing on this socket —
            # but it still spends one unit of a bounded-serve budget.
            server.endpoint.count_request()
            self.close_connection = True
            return
        try:
            status = 200
            response = dispatch(payload)
        except Exception as error:  # noqa: BLE001 - dispatch contains its
            # own failures; this is the last-resort mapping to HTTP 500.
            status = 500
            response = error_response(
                RemoteProtocolError(
                    f"{server.internal_error}: {type(error).__name__}: {error}"
                )
            )
        self._answer(
            status, "application/octet-stream", response, close=status != 200
        )

    def _refuse(self, status: int, message: str) -> None:
        """Spend one unit of the budget on an HTTP-level error; the error
        response closes the connection."""
        self.server.endpoint.count_request()
        self.send_error(status, message)

    def _answer(
        self, status: int, content_type: str, body: bytes, close: bool = False
    ) -> None:
        # Bounded serving (request_limit): once the budget is spent, stop
        # honouring keep-alive so an active pipelining client cannot keep
        # its handler thread alive past the limit.
        limit = self.server.request_limit
        close = close or (
            limit is not None and self.server.endpoint.requests_handled >= limit
        )
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")  # sets close_connection
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)


class SyncHTTPServer(http.server.ThreadingHTTPServer):
    """The HTTP front of both endpoints, bound to the object it serves.

    ``endpoint`` is a :class:`RepositoryServer` (``serve``) or a
    :class:`~repro.hub.hub.RepositoryHub` (``serve_hub``): either carries
    ``count_request`` / ``requests_handled`` (the bounded-serve budget)
    and ``registry`` (``GET /metrics``). What the two endpoints answer
    differently is passed in as data: ``route(path, headers)`` returns a
    ``callable(payload) -> response bytes`` for an RPC path or None for
    a 404; ``server_version``, ``not_found`` and
    ``internal_error`` are the ``Server`` header, the 404 text and the
    500 prefix. ``max_request_bytes`` (optional) rejects oversized
    request bodies with HTTP 413 before they are read into memory.
    """

    daemon_threads = True

    def __init__(
        self,
        address,
        endpoint,
        route,
        *,
        health_monitor,
        verbose: bool = False,
        max_request_bytes: int | None = None,
        idle_timeout: float | None = None,
        server_version: str = "mlcask-repro/1",
        not_found: str = "unknown endpoint",
        internal_error: str = "internal server error",
    ):
        super().__init__(address, BaseRPCHandler)
        self.endpoint = endpoint
        self.route = route
        self.verbose = verbose
        self.max_request_bytes = max_request_bytes
        self.idle_timeout = idle_timeout
        # Rendered by GET /metrics; None answers an empty scrape.
        self.metrics_registry = endpoint.registry
        # Read by GET /readyz; None answers always-ready.
        self.health_monitor = health_monitor
        self.server_version = server_version
        self.not_found = not_found
        self.internal_error = internal_error
        # When set, handlers stop honouring keep-alive once this many
        # requests have been handled (bounded serving, see the CLI).
        self.request_limit: int | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def repo_url(self, tenant: str, repo: str) -> str:
        """The clone/push/pull URL of one repository a hub hosts."""
        return f"{self.url}/t/{tenant}/{repo}"


#: glibc's ``mallopt`` parameters: the most arenas malloc may create,
#: and the size from which a block is mapped on its own.
M_ARENA_MAX = -8
M_MMAP_THRESHOLD = -3

#: Blocks this large or larger (request bodies, ``get_chunks`` frames)
#: are mapped when allocated and unmapped when freed.
MMAP_THRESHOLD_BYTES = 1 << 20


def share_one_heap() -> bool:
    """Cap glibc malloc at one arena, and map every block of at least
    :data:`MMAP_THRESHOLD_BYTES` on its own, for the rest of this
    process; True when the allocator took both settings, False (and
    nothing changed) where libc has no ``mallopt`` or refuses the first.

    A serving process calls this before it builds what it serves and
    before any handler thread starts. Without it glibc gives each new
    thread — one per connection — a heap of its own, and each heap keeps
    the request bodies and response frames its thread freed. Handler
    threads allocate under the GIL, so separate arenas buy no
    concurrency; one heap lets the next request, on any thread, reuse
    what the last one freed. The fixed threshold keeps the multi-MB
    bodies and frames out of that heap: by default glibc raises the
    threshold to the size of the first mapped block freed, after which
    such blocks are carved from the heap wherever the interleaving of
    concurrent requests leaves room, and the heap's peak moves from one
    run to the next. ``repro serve`` and ``repro hub serve`` call it; a
    program that embeds :func:`serve` or :func:`~repro.hub.hub.serve_hub`
    calls it itself if it wants it.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return (
        mallopt(M_ARENA_MAX, 1) == 1
        and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
    )


def serve(
    repo,
    host: str = "127.0.0.1",
    port: int = 0,
    on_change=None,
    verbose: bool = False,
    max_pack_bytes: int = pack.DEFAULT_MAX_PACK_BYTES,
    cache_entries: int = 128,
    max_request_bytes: int | None = None,
    idle_timeout: float | None = None,
    registry=None,
    slo: SLOConfig | None = None,
) -> SyncHTTPServer:
    """Expose ``repo`` at ``http://host:port/rpc``; returns the server.

    The caller drives the loop (``serve_forever()`` for a daemon,
    ``handle_request()`` N times for bounded serving in tests); ``port=0``
    binds an ephemeral port, readable from ``server.url``. Requests are
    handled on a thread per connection: reads run concurrently, pushes
    exclusively (see :class:`RepositoryServer`).

    ``registry`` defaults to a fresh real instance — an HTTP endpoint
    should answer ``GET /metrics`` with something — readable back from
    ``server.metrics_registry``. Pass
    :data:`repro.obs.metrics.NULL_REGISTRY` to serve uninstrumented.

    ``slo`` (optional :class:`~repro.obs.slo.SLOConfig`, the
    ``--slo-config`` flag) parameterizes the health model behind
    ``GET /healthz`` / ``GET /readyz`` and the ``health`` op; the stock
    objectives apply when omitted.

    A program that serves with this, as ``repro serve`` does, calls
    :func:`share_one_heap` first, before it loads ``repo``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    endpoint = RepositoryServer(
        repo,
        on_change=on_change,
        max_pack_bytes=max_pack_bytes,
        cache_entries=cache_entries,
        registry=registry,
        health_monitor=HealthMonitor(registry=registry, slo=slo),
    )
    return SyncHTTPServer(
        (host, port),
        endpoint,
        # Resolved per request, so a replaced handle_bytes takes effect.
        lambda path, headers: (
            endpoint.handle_bytes if path.rstrip("/") == RPC_PATH else None
        ),
        health_monitor=endpoint.health_monitor,
        verbose=verbose,
        max_request_bytes=max_request_bytes,
        idle_timeout=idle_timeout,
    )
