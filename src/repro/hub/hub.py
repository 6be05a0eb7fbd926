"""RepositoryHub: many repositories, many tenants, one process.

The hub is the piece that turns a single-repo ``RepositoryServer`` into
a hosting service: it routes ``{tenant}/{repo}`` addresses to per-repo
servers, keeps only a bounded working set of them loaded (LRU-evicting
idle repos back to disk), shares one chunk backend across every
repository it hosts, and runs an admission pipeline — authentication,
rate limiting, quota — in front of every request.

Request path (:meth:`RepositoryHub.handle_request`)::

    token ──authorize──▶ tenant ──token bucket──▶ decode op
        reads:  route to the loaded server, concurrent per repo
        writes: per-tenant serialization ▶ quota pre-check ▶ server

The quota check happens *before* the repository server sees the
request, and every admission denial is raised before any state is
touched — a rejected push leaves the target repo bit-identical, which
the hub tests assert. Inside a repository, the PR-2 reader-writer lock
and response cache still apply unchanged; the hub adds nothing to the
per-repo hot path beyond one dict lookup and a token-bucket tick.

Persistence layout (``root`` directory)::

    <root>/hub.json             tenant registry (tokens, quotas)
    <root>/chunks/segment.<g>   the shared chunk backend (bytes, stored
                                once deployment-wide) and, beside it,
    <root>/chunks.index/        its digest -> offset index
    <root>/tenants/<t>/<r>/     one repository directory per hosted repo

A hosted repository's directory is the repository directory of
:mod:`repro.core.persistence` — the header, the append-only journals
behind it, the same save, load and compaction as a working copy's —
with one difference: it holds *no* chunk bytes of its own. In place of
``objects/`` it keeps the holdings journal, the per-repo claim on the
shared backend (written at request time, before the persist that names
them), and backend refcounts are rebuilt from these journals at startup.
With ``root=None`` the hub is fully in-memory (tests, examples): eviction
is disabled and nothing persists.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import OrderedDict

from ..core.persistence import (
    is_repository_dir,
    read_holdings,
    read_repository_header,
    restore_repository_dir,
    save_repository_dir,
    write_json_atomic,
)
from ..core.repository import MLCask
from ..errors import (
    AuthenticationError,
    AuthorizationError,
    HubError,
    QuotaExceededError,
    RateLimitedError,
    RemoteProtocolError,
    RepositoryNotFoundError,
    ServerOverloadedError,
)
from ..obs.health import HealthMonitor
from ..obs.metrics import MetricsRegistry
from ..obs.slo import SLOConfig
from ..ops import OP_TABLE, OpSpec
from ..remote import pack
from ..remote.protocol import decode_message, error_response
from ..remote.server import RepositoryServer, SyncHTTPServer
from ..remote.transport import Transport
from ..storage.chunk_store import FileChunkStore
from ..storage.object_store import ObjectStore
from .auth import NAME_FRAGMENT, TenantConfig, TokenAuthenticator, validate_name
from .backend import SharedChunkBackend, TenantChunkStore
from .quota import TokenBucket, incoming_new_bytes

HUB_CONFIG_FILE = "hub.json"

#: Admission-denial reasons, as the ``repro_admission_denied_total``
#: ``reason`` label reports them; keyed by most-specific error type.
_DENIAL_REASONS = (
    (AuthenticationError, "auth"),
    (AuthorizationError, "auth"),
    (QuotaExceededError, "quota"),
    (RateLimitedError, "rate"),
    (RepositoryNotFoundError, "not_found"),
    (ServerOverloadedError, "overload"),
    (HubError, "hub"),
    (RemoteProtocolError, "protocol"),
)


def _denial_reason(error: Exception) -> str:
    for cls, reason in _DENIAL_REASONS:
        if isinstance(error, cls):
            return reason
    return "internal"

CHUNKS_DIR = "chunks"
TENANTS_DIR = "tenants"
HUB_FORMAT_VERSION = 1

#: Default bound on simultaneously loaded repositories. Sized for "many
#: repos, few hot": a hub serving hundreds of repos keeps only the
#: working set resident, everything else lives as metadata + shared
#: chunks on disk until a request touches it.
DEFAULT_MAX_LOADED_REPOS = 16

#: Read operations a push performs *before* its first write. A missing
#: repository answers these with empty-repo semantics (served from an
#: ephemeral, never-registered instance) so "push to a repo that does
#: not exist yet" bootstraps naturally; content reads (``fetch``,
#: ``get_chunks``) on a missing repo stay a typed not-found, so a
#: typo'd clone fails loudly instead of yielding an empty repository.
PREFLIGHT_OPS = frozenset(
    spec.name for spec in OP_TABLE.values() if spec.preflight
)

#: The HTTP path of one hosted repository: /t/<tenant>/<repo> with an
#: optional /rpc suffix (HttpTransport always appends one). Composed from
#: the one authoritative name grammar.
ROUTE = re.compile(
    f"^/t/(?P<tenant>{NAME_FRAGMENT})/(?P<repo>{NAME_FRAGMENT})(?:/rpc)?/?$"
)


def bearer_token(header_value: str | None) -> str | None:
    """The token of an ``Authorization: Bearer ...`` header, else None."""
    if not header_value:
        return None
    scheme, _, credential = header_value.partition(" ")
    if scheme.lower() != "bearer" or not credential.strip():
        return None
    return credential.strip()


class HostedRepository:
    """One loaded repository: its server, its backend view, its traffic."""

    __slots__ = (
        "tenant", "name", "view", "server", "inflight",
        "adopt_config", "provisional",
    )

    def __init__(self, tenant: str, name: str, view: TenantChunkStore):
        self.tenant = tenant
        self.name = name
        self.view = view
        self.server: RepositoryServer | None = None
        #: Requests currently executing against this repo; an LRU victim
        #: must be idle (inflight == 0) so eviction never persists a repo
        #: mid-mutation.
        self.inflight = 0
        #: True only for repos auto-created by an incoming push: those
        #: adopt the pusher's metric/seed on first contact. Repos an
        #: operator created explicitly (``create_repo``) or that were
        #: loaded from disk keep their configuration.
        self.adopt_config = False
        #: An auto-created repo stays provisional until something lands
        #: in it; a provisional repo that goes idle while still empty is
        #: discarded (see :meth:`RepositoryHub._release`) so a denied or
        #: rejected creating push never squats the name.
        self.provisional = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.tenant, self.name)


class RepositoryHub:
    """Multi-tenant repository host over one shared chunk backend."""

    def __init__(
        self,
        root: str | os.PathLike[str] | None = None,
        *,
        authenticator: TokenAuthenticator | None = None,
        backend: SharedChunkBackend | None = None,
        max_loaded_repos: int = DEFAULT_MAX_LOADED_REPOS,
        max_pack_bytes: int = pack.DEFAULT_MAX_PACK_BYTES,
        cache_entries: int = 128,
        default_metric: str = "accuracy",
        default_seed: int = 0,
        clock=time.monotonic,
        registry=None,
        slo: SLOConfig | None = None,
    ):
        self.root = os.fspath(root) if root is not None else None
        self.authenticator = authenticator or TokenAuthenticator()
        if backend is not None:
            self.backend = backend
        elif self.root is not None:
            self.backend = SharedChunkBackend(
                FileChunkStore(os.path.join(self.root, CHUNKS_DIR))
            )
        else:
            self.backend = SharedChunkBackend()
        self.max_loaded_repos = max(1, max_loaded_repos)
        self.max_pack_bytes = max_pack_bytes
        self.cache_entries = cache_entries
        self.default_metric = default_metric
        self.default_seed = default_seed
        self.clock = clock

        self._lock = threading.RLock()
        self._loaded: OrderedDict[tuple[str, str], HostedRepository] = OrderedDict()
        #: Logical bytes of *unloaded* persisted repos, keyed (tenant,
        #: repo); loaded repos report live through their views instead.
        #: ``_persisted_by_tenant`` is the per-tenant aggregate of the
        #: same numbers, so the quota check on every write costs O(the
        #: tenant's *loaded* repos), never a hub-wide scan.
        self._persisted_usage: dict[tuple[str, str], int] = {}
        self._persisted_by_tenant: dict[str, int] = {}
        #: Keys currently being loaded from or persisted to disk. The
        #: I/O itself runs *outside* the hub lock (a cold load must not
        #: stall every tenant's traffic); requests racing the same key
        #: wait on its event and retry.
        self._pending: dict[tuple[str, str], threading.Event] = {}
        self._tenant_locks: dict[str, threading.Lock] = {}
        self._buckets: dict[str, TokenBucket] = {}
        #: Serializes config writes only (never request-path state): the
        #: snapshot happens inside it, so the last writer to the file
        #: always carries every registration that preceded its turn.
        self._config_lock = threading.Lock()
        self.requests_handled = 0
        self.evictions = 0
        self.loads = 0

        # Telemetry: a hub defaults to a *real* registry (it fronts the
        # /metrics endpoint), one shared by every hosted RepositoryServer
        # so per-repo series land in one scrape. Pass NULL_REGISTRY to
        # opt out.
        self.registry = registry if registry is not None else MetricsRegistry()
        # The health model behind /healthz, /readyz, the health op, and
        # admission shedding. One deployment-wide monitor over the shared
        # registry: hosted servers answer the health op from it,
        # so a tenant's view is the hub's view (per-op windows aggregate
        # across tenants — overload is a shared-substrate condition).
        self.slo = slo if slo is not None else SLOConfig.default()
        self.health = HealthMonitor(registry=self.registry, slo=self.slo)
        self._m_admission = self.registry.counter(
            "repro_admission_total",
            "Hub admission decisions, by tenant and outcome",
            ("tenant", "outcome"),
        )
        self._m_denied = self.registry.counter(
            "repro_admission_denied_total",
            "Hub admission denials, by tenant and reason",
            ("tenant", "reason"),
        )
        self._m_loaded = self.registry.gauge(
            "repro_hub_loaded_repos",
            "Repositories currently resident in the hub's working set",
        )
        self._m_loads = self.registry.counter(
            "repro_hub_loads_total", "Cold repository loads from disk"
        )
        self._m_evictions = self.registry.counter(
            "repro_hub_evictions_total",
            "Idle repositories evicted back to disk",
        )

        if self.root is not None:
            os.makedirs(self.root, exist_ok=True)
            self._load_config()
            self._scan_persisted()

    # ----------------------------------------------------------- tenants
    def add_tenant(
        self,
        name: str,
        tokens=(),
        quota_bytes: int | None = None,
        rate_per_second: float | None = None,
        burst: float | None = None,
    ) -> TenantConfig:
        """Register (or reconfigure) a tenant; persists when disk-backed.

        Re-adding an existing tenant *replaces* its config — that is how
        tokens rotate and quotas change."""
        config = TenantConfig(
            name=name,
            tokens=tuple(tokens),
            quota_bytes=quota_bytes,
            rate_per_second=rate_per_second,
            burst=burst,
        )
        with self._lock:
            self.authenticator.add_tenant(config)
            self._buckets.pop(name, None)  # rebuilt from the new terms
        # LK002: the config write is disk I/O and must not run under the
        # hub lock — it would stall every tenant's admission while the
        # file is written and renamed. _save_config serializes itself.
        self._save_config()
        return config

    def _bucket_for(self, config: TenantConfig) -> TokenBucket | None:
        if config.rate_per_second is None:
            return None
        with self._lock:
            bucket = self._buckets.get(config.name)
            if bucket is None:
                burst = (
                    config.burst
                    if config.burst is not None
                    else max(1.0, config.rate_per_second)
                )
                bucket = TokenBucket(
                    config.rate_per_second, burst, clock=self.clock
                )
                self._buckets[config.name] = bucket
            return bucket

    def _tenant_lock(self, tenant: str) -> threading.Lock:
        # One lock per tenant, never service-wide: I/O under it stalls
        # only that tenant's writes.
        with self._lock:
            lock = self._tenant_locks.get(tenant)
            if lock is None:
                lock = self._tenant_locks[tenant] = threading.Lock()
            return lock

    # ------------------------------------------------------------ config
    def _config_path(self) -> str:
        return os.path.join(self.root, HUB_CONFIG_FILE)

    def _save_config(self) -> None:
        if self.root is None:
            return
        # _config_lock orders concurrent writers; because the tenant
        # snapshot is taken *after* acquiring it, the last writer's file
        # reflects every registration that happened before its turn.
        # The write below is the lock's whole purpose: it guards no
        # request-path state, and admission never touches it.
        with self._config_lock:
            state = {
                "format": HUB_FORMAT_VERSION,
                "tenants": {
                    config.name: config.to_dict()
                    for config in self.authenticator.tenants()
                },
            }
            # Durable before add_tenant returns: a tenant whose
            # repositories outlive a power loss keeps its token and quota.
            write_json_atomic(
                self._config_path(), state, sync=True, indent=2, sort_keys=True
            )

    def _load_config(self) -> None:
        path = self._config_path()
        if not os.path.isfile(path):
            return
        with open(path) as fh:
            state = json.load(fh)
        if state.get("format") != HUB_FORMAT_VERSION:
            raise HubError(
                f"unsupported hub config format {state.get('format')!r}"
            )
        for name, entry in state.get("tenants", {}).items():
            self.authenticator.add_tenant(TenantConfig.from_dict(name, entry))

    # ------------------------------------------------------- persistence
    def _repo_dir(self, tenant: str, name: str) -> str:
        return os.path.join(self.root, TENANTS_DIR, tenant, name)

    def _scan_persisted(self) -> None:
        """Rebuild backend refcounts and usage from on-disk manifests."""
        tenants_root = os.path.join(self.root, TENANTS_DIR)
        if not os.path.isdir(tenants_root):
            return
        for tenant in sorted(os.listdir(tenants_root)):
            tenant_dir = os.path.join(tenants_root, tenant)
            if not os.path.isdir(tenant_dir):
                continue
            for name in sorted(os.listdir(tenant_dir)):
                repo_dir = os.path.join(tenant_dir, name)
                if not is_repository_dir(repo_dir):
                    continue
                holdings = read_holdings(repo_dir, read_repository_header(repo_dir))
                self.backend.register_holdings(holdings)
                self._record_persisted_locked(
                    (tenant, name), sum(holdings.values())
                )

    def _record_persisted_locked(self, key: tuple[str, str], size: int) -> None:
        self._forget_persisted_locked(key)
        self._persisted_usage[key] = size
        self._persisted_by_tenant[key[0]] = (
            self._persisted_by_tenant.get(key[0], 0) + size
        )

    def _forget_persisted_locked(self, key: tuple[str, str]) -> None:
        size = self._persisted_usage.pop(key, None)
        if size is not None:
            self._persisted_by_tenant[key[0]] -= size

    def _persist_hosted(self, hosted: HostedRepository) -> None:
        """Save the repo's metadata to its directory (bytes already live
        in the shared backend, written at request time)."""
        if self.root is not None:
            repo_dir = self._repo_dir(hosted.tenant, hosted.name)
            save_repository_dir(hosted.server.repo, repo_dir, hosted=True)

    # ------------------------------------------------------- repo lookup
    def _new_hosted(
        self,
        tenant: str,
        name: str,
        metric: str,
        seed: int,
        holdings: dict[str, int] | None = None,
    ) -> HostedRepository:
        view = TenantChunkStore(self.backend, holdings)
        hosted = HostedRepository(tenant, name, view)
        repo = MLCask(
            metric=metric, seed=seed, objects=ObjectStore(chunk_store=view)
        )
        # Lineage records minted on the hub (none today — hosted repos
        # never run pipelines — but imported ones keep the stamp they
        # arrived with) attribute to this tenant.
        repo.lineage.tenant = tenant
        hosted.server = RepositoryServer(
            repo,
            on_change=lambda _repo: self._persist_hosted(hosted),
            max_pack_bytes=self.max_pack_bytes,
            cache_entries=self.cache_entries,
            registry=self.registry,
            metric_labels={"tenant": tenant, "repo": name},
            health_monitor=self.health,
        )
        return hosted

    def _load_repo(self, tenant: str, name: str) -> HostedRepository:
        repo_dir = self._repo_dir(tenant, name)
        header = read_repository_header(repo_dir)
        hosted = self._new_hosted(
            tenant, name, header["metric"], header["seed"],
            read_holdings(repo_dir, header),
        )
        restore_repository_dir(hosted.server.repo, repo_dir, header)
        self.loads += 1
        self._m_loads.inc()
        return hosted

    def create_repo(
        self,
        tenant: str,
        name: str,
        metric: str | None = None,
        seed: int | None = None,
    ) -> HostedRepository:
        """Explicitly create an empty repository in a tenant's namespace.

        Pushes to a missing repo auto-create it (adopting the pushing
        client's metric/seed), so this exists for operators who want the
        repo configured before first contact."""
        validate_name("tenant", tenant)
        validate_name("repository", name)
        if not self.authenticator.has_tenant(tenant):
            raise HubError(f"unknown tenant {tenant!r}; add the tenant first")
        key = (tenant, name)
        with self._lock:
            if (
                key in self._loaded
                or key in self._persisted_usage
                or key in self._pending
            ):
                raise HubError(f"repository {tenant}/{name} already exists")
            hosted = self._new_hosted(
                tenant,
                name,
                metric if metric is not None else self.default_metric,
                seed if seed is not None else self.default_seed,
            )
            self._loaded[key] = hosted
            # Pin through the initial persist: the inflight count keeps
            # eviction off the brand-new repo, the pending event keeps
            # concurrent requests (whose on_change would race this very
            # persist on the same files) waiting until it is complete.
            hosted.inflight += 1
            event = self._pending[key] = threading.Event()
            victims = self._select_victims_locked()
            self._m_loaded.set(len(self._loaded))
        try:
            self._persist_hosted(hosted)
        finally:
            with self._lock:
                hosted.inflight -= 1
                del self._pending[key]
            event.set()
        self._persist_victims(victims)
        return hosted

    def _acquire(self, tenant: str, name: str, create: bool) -> HostedRepository:
        """The loaded repo for ``key``, loading or creating as needed.

        Disk I/O (cold load, eviction persist) runs outside the hub
        lock; concurrent requests for a key mid-I/O wait on its pending
        event and retry.
        """
        key = (tenant, name)
        while True:
            with self._lock:
                pending = self._pending.get(key)
                if pending is None:
                    hosted = self._loaded.get(key)
                    if hosted is not None:
                        self._loaded.move_to_end(key)
                        hosted.inflight += 1
                        return hosted
                    load = key in self._persisted_usage
                    if not load and not create:
                        raise RepositoryNotFoundError(
                            f"no repository {tenant}/{name} on this hub"
                        )
                    event = self._pending[key] = threading.Event()
            if pending is not None:
                pending.wait()
                continue
            # This thread owns the slot: do the I/O unlocked.
            try:
                if load:
                    hosted = self._load_repo(tenant, name)
                else:
                    hosted = self._new_hosted(
                        tenant, name, self.default_metric, self.default_seed
                    )
                    hosted.adopt_config = True
                    hosted.provisional = True
            except BaseException:
                with self._lock:
                    del self._pending[key]
                event.set()
                raise
            with self._lock:
                self._loaded[key] = hosted
                self._forget_persisted_locked(key)
                hosted.inflight += 1
                del self._pending[key]
                victims = self._select_victims_locked()
                self._m_loaded.set(len(self._loaded))
            event.set()
            self._persist_victims(victims)
            return hosted

    def _release(self, hosted: HostedRepository) -> None:
        with self._lock:
            hosted.inflight -= 1
            if not hosted.provisional or hosted.inflight:
                return
            # An auto-created repo that goes idle without anything having
            # landed in it (denied push, server-side rejection, plain
            # probe) must not outlive its requests: a phantom empty repo
            # would shadow RepositoryNotFoundError for every later read
            # and squat the name forever. Checked at *every* release so
            # a concurrent reader overlapping the creating request only
            # defers the discard to whichever request finishes last.
            repo = hosted.server.repo
            if len(repo.graph) or repo.branches.pipelines() or hosted.view.held_bytes:
                hosted.provisional = False  # something landed: keep it
                return
            if self._loaded.get(hosted.key) is hosted:
                del self._loaded[hosted.key]
                self._m_loaded.set(len(self._loaded))

    def _select_victims_locked(self) -> list[HostedRepository]:
        """Pop idle LRU repos beyond capacity; caller persists them
        *outside* the hub lock (:meth:`_persist_victims`).

        Selection already moves each victim's usage to the persisted
        table (its holdings cannot change while idle and pending), so
        quota arithmetic never sees a gap; the pending event keeps
        re-acquisition of the key waiting until its files are complete.
        """
        if self.root is None:
            return []  # nowhere to persist evicted state; keep resident
        victims = []
        while len(self._loaded) > self.max_loaded_repos:
            victim = next(
                (h for h in self._loaded.values() if h.inflight == 0), None
            )
            if victim is None:
                break  # everything is mid-request; retry on a later call
            del self._loaded[victim.key]
            self._record_persisted_locked(victim.key, victim.view.held_bytes)
            self._pending[victim.key] = threading.Event()
            self.evictions += 1
            self._m_evictions.inc()
            victims.append(victim)
        self._m_loaded.set(len(self._loaded))
        return victims

    def _persist_victims(self, victims: list[HostedRepository]) -> None:
        for victim in victims:
            try:
                self._persist_hosted(victim)
            except Exception:  # noqa: BLE001 - eviction is asynchronous to
                # the request that triggered it; failing *that* client (and
                # leaking its inflight count) for an unrelated repo's disk
                # problem would be wrong. Keep the victim resident instead
                # of pointing the persisted table at incomplete files — the
                # failure resurfaces on the next push's on_change persist,
                # which reports to the right client.
                with self._lock:
                    self._forget_persisted_locked(victim.key)
                    self._loaded[victim.key] = victim
                    self._loaded.move_to_end(victim.key, last=False)
                    event = self._pending.pop(victim.key)
                    self._m_loaded.set(len(self._loaded))
                event.set()
            else:
                with self._lock:
                    event = self._pending.pop(victim.key)
                event.set()

    def loaded_repos(self) -> list[tuple[str, str]]:
        with self._lock:
            return list(self._loaded)

    def list_repos(self, tenant: str) -> list[str]:
        with self._lock:
            names = {r for (t, r) in self._loaded if t == tenant}
            names.update(r for (t, r) in self._persisted_usage if t == tenant)
            return sorted(names)

    # ------------------------------------------------------- maintenance
    def gc_repo(self, tenant: str, name: str):
        """Sweep a hosted repository's unreferenced content.

        The hub-side mirror of ``repro gc``: live roots are the stage
        outputs of every commit, everything else the repo holds —
        orphan chunks from interrupted streamed pushes included — is
        released from the shared backend (forgotten there only when the
        last holding repo lets go) and the tenant's logical usage
        shrinks accordingly. Runs under the repo's exclusive lock, so
        readers never observe a half-swept store, and re-persists by
        compaction: the one full rewrite of the journals. Only once that
        header is in place does the backend give the bytes back: a sweep
        that dies before it leaves every chunk the old header names.
        Returns the :class:`~repro.storage.gc.GCReport`.
        """
        hosted = self._acquire(tenant, name, create=False)
        try:
            with self._tenant_lock(tenant):
                with hosted.server.maintenance() as repo:
                    report = repo.gc()
                self._persist_hosted(hosted)
                self.backend.compact()
                return report
        finally:
            self._release(hosted)

    # -------------------------------------------------------- accounting
    def tenant_usage(self, tenant: str) -> int:
        """Tenant-logical reachable bytes across all of its repos —
        what the quota is checked against.

        O(loaded repos), which ``max_loaded_repos`` bounds: unloaded
        repos are pre-aggregated per tenant, so the per-write quota
        check never scans the hub-wide repo table."""
        with self._lock:
            usage = self._persisted_by_tenant.get(tenant, 0)
            usage += sum(
                hosted.view.held_bytes
                for (t, _), hosted in self._loaded.items()
                if t == tenant
            )
            return usage

    def stats(self) -> dict:
        """Hub-wide numbers the benchmark and tests read."""
        # Health computed before taking the hub lock: the monitor reads
        # the registry (its own lock) and must not extend this hold.
        health = self.health.summary()
        with self._lock:
            return {
                "health": health,
                "physical_bytes": self.backend.physical_bytes,
                "chunks": self.backend.chunk_count(),
                "loaded_repos": len(self._loaded),
                "requests_handled": self.requests_handled,
                "evictions": self.evictions,
                "loads": self.loads,
                "tenant_usage": {
                    config.name: self.tenant_usage(config.name)
                    for config in self.authenticator.tenants()
                },
            }

    # --------------------------------------------------------- admission
    def count_request(self) -> None:
        with self._lock:
            self.requests_handled += 1

    def _enforce_quota(
        self,
        config: TenantConfig,
        hosted: HostedRepository,
        spec: OpSpec,
        meta: dict,
        blobs: list,
    ) -> None:
        if config.quota_bytes is None:
            return
        digests = meta.get(spec.blob_digests_key, [])
        new_bytes = incoming_new_bytes(hosted.view, digests, blobs)
        usage = self.tenant_usage(config.name)
        if usage + new_bytes > config.quota_bytes:
            raise QuotaExceededError(
                f"tenant {config.name!r} is using {usage} of "
                f"{config.quota_bytes} quota bytes; this write would add "
                f"{new_bytes} more — have the operator sweep unreferenced "
                "content (repro hub gc) or raise the quota"
            )

    @staticmethod
    def _maybe_adopt_config(hosted: HostedRepository, meta: dict) -> None:
        """First push into a still-empty *auto-created* repo fixes its
        metric/seed. Repos configured explicitly (``create_repo
        --metric/--seed``) or loaded from disk are never overwritten —
        the operator's configuration wins over the pusher's."""
        repo = hosted.server.repo
        if not hosted.adopt_config:
            return
        if len(repo.graph) or repo.branches.pipelines():
            return
        config = meta.get("repo_config")
        if not isinstance(config, dict):
            return
        metric = config.get("metric")
        seed = config.get("seed")
        if isinstance(metric, str) and metric:
            repo.metric = metric
            repo.executor.metric = metric
        if isinstance(seed, int) and not isinstance(seed, bool):
            repo.seed = seed

    def handle_request(
        self,
        tenant: str,
        repo: str,
        token: str | None,
        payload: bytes,
    ) -> bytes:
        """Admit and execute one wire request; never raises.

        Denials (auth, rate, quota, unknown repo, overload shed) are
        answered as typed error responses *before* the repository server
        — and therefore any repository state — is touched. The payload
        is decoded only after authentication and rate limiting pass, so
        an unauthenticated or throttled peer costs no parse and learns
        nothing about its payload.

        Telemetry: every decision lands in the admission counters —
        ``repro_admission_total{tenant,outcome}`` plus, for denials,
        ``repro_admission_denied_total{tenant,reason}``."""
        self.count_request()
        try:
            validate_name("tenant", tenant)
            validate_name("repository", repo)
            config = self.authenticator.authorize(token, tenant)
            bucket = self._bucket_for(config)
            if bucket is not None and not bucket.try_acquire():
                raise RateLimitedError(
                    f"tenant {tenant!r} exceeded "
                    f"{config.rate_per_second:g} requests/s "
                    f"(burst {bucket.burst:g}); retry after a pause"
                )
            meta, blobs = decode_message(payload)
            op = meta.get("op")
            spec = OP_TABLE.get(op)
            write = spec is not None and spec.write
            # Observability-driven load shedding: the last admission
            # gate, still before any repository state is touched (same
            # never-partially-mutate contract as auth/quota/rate —
            # _acquire runs strictly after this). Only known ops shed,
            # so an unknown op keeps its typed protocol error; exempt
            # ops (health and stats) always pass so probes work under
            # the very overload they diagnose.
            if spec is not None:
                retry_after = self.health.shed_decision(op)
                if retry_after is not None:
                    self.health.note_shed(op)
                    raise ServerOverloadedError(
                        f"hub overloaded; shedding {op!r} "
                        "admissions — retry with backoff",
                        retry_after=retry_after,
                    )
            # Quota arithmetic reads a write's digest list, and _acquire
            # auto-creates its target: a malformed write must be a typed
            # protocol denial before either.
            if write:
                spec.validate(meta, blobs)
            try:
                hosted = self._acquire(tenant, repo, create=write)
            except RepositoryNotFoundError:
                if op not in PREFLIGHT_OPS:
                    raise
                ephemeral = self._new_hosted(
                    tenant, repo, self.default_metric, self.default_seed
                )
                self._note_admitted(tenant)
                return ephemeral.server.handle_bytes(
                    payload, decoded=(meta, blobs)
                )
            try:
                if write:
                    # Per-tenant serialization makes the quota check
                    # race-free across a tenant's repositories; writes
                    # of different tenants still run concurrently.
                    with self._tenant_lock(tenant):
                        self._enforce_quota(config, hosted, spec, meta, blobs)
                        if op == "push":
                            self._maybe_adopt_config(hosted, meta)
                        response = hosted.server.handle_bytes(
                            payload, decoded=(meta, blobs)
                        )
                else:
                    response = hosted.server.handle_bytes(
                        payload, decoded=(meta, blobs)
                    )
            finally:
                # Auto-created repos are kept only if something landed
                # in them (the provisional check in _release).
                self._release(hosted)
            self._note_admitted(tenant)
            return response
        except (HubError, RemoteProtocolError) as error:
            self._note_denied(tenant, error)
            return error_response(error)
        except Exception as error:  # noqa: BLE001 - last-resort containment
            self._note_denied(tenant, error)
            return error_response(
                RemoteProtocolError(
                    f"internal hub error: {type(error).__name__}: {error}"
                )
            )

    def _note_admitted(self, tenant: str) -> None:
        self._m_admission.labels(tenant=tenant, outcome="allowed").inc()

    def _note_denied(self, tenant: str, error: Exception) -> None:
        reason = _denial_reason(error)
        self._m_admission.labels(tenant=tenant, outcome="denied").inc()
        self._m_denied.labels(tenant=tenant, reason=reason).inc()

    # --------------------------------------------------------- transports
    def local_transport(
        self, tenant: str, repo: str, token: str | None = None
    ) -> "HubLocalTransport":
        return HubLocalTransport(self, tenant, repo, token)


class HubLocalTransport(Transport):
    """In-process transport addressing one ``{tenant}/{repo}`` on a hub.

    The local twin of pointing an :class:`HttpTransport` at
    ``http://host/t/<tenant>/<repo>`` with a bearer token: same admission
    pipeline, no socket."""

    def __init__(
        self,
        hub: RepositoryHub,
        tenant: str,
        repo: str,
        token: str | None = None,
    ):
        super().__init__()
        self.hub = hub
        self.tenant = tenant
        self.repo = repo
        self.token = token

    def _call(self, payload: bytes) -> bytes:
        return self.hub.handle_request(
            self.tenant, self.repo, self.token, payload
        )


def serve_hub(
    hub: RepositoryHub,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    max_request_bytes: int | None = None,
    idle_timeout: float | None = None,
) -> SyncHTTPServer:
    """Expose every repository of ``hub`` at
    ``http://host:port/t/<tenant>/<repo>/rpc``; returns the server
    (caller drives the loop, ``port=0`` binds an ephemeral port).

    The same :class:`~repro.remote.server.SyncHTTPServer` as the
    single-repository ``serve``, given the hub's route: tenant, repo and
    bearer token are read off the request and handed to
    :meth:`RepositoryHub.handle_request`, which owns admission and
    routing and never raises — every application-level outcome, auth,
    quota and rate denials included, travels as an HTTP 200 with a
    typed error body. HTTP status codes stay for transport-level
    problems. ``GET /metrics`` renders the hub's registry and the probes
    answer from its health model.

    A program that serves with this, as ``repro hub serve`` does, calls
    :func:`~repro.remote.server.share_one_heap` first, before it builds
    ``hub``."""

    def route(path, headers):
        match = ROUTE.match(path)
        if match is None:
            return None
        token = bearer_token(headers.get("Authorization"))
        return lambda payload: hub.handle_request(
            match["tenant"], match["repo"], token, payload
        )

    return SyncHTTPServer(
        (host, port),
        hub,
        route,
        health_monitor=hub.health,
        verbose=verbose,
        max_request_bytes=max_request_bytes,
        idle_timeout=idle_timeout,
        server_version="mlcask-hub/1",
        not_found="unknown endpoint (expected /t/<tenant>/<repo>/rpc)",
        internal_error="internal hub error",
    )
