"""Multi-tenant repository hub: many repos, one process, shared storage.

MLCask's collaboration story (paper section V) assumes many teams
evolving pipelines against hosted version history. PR 1–3 built the
wire protocol, a hardened single-repo server, and concurrency; this
subsystem adds the *hosting* layer on top:

* **Routing** — one :class:`RepositoryHub` serves any number of
  repositories addressed as ``{tenant}/{repo}``, loading them lazily
  from disk, LRU-evicting idle ones, and persisting on eviction and
  after every ref-moving push.
* **Cross-tenant dedup** — every hosted repository stores chunks
  through one :class:`SharedChunkBackend`: a chunk pushed by any tenant
  is stored once deployment-wide (the DataHub observation that hosting
  many versioned datasets pays off when storage dedups across tenants),
  while per-tenant views keep membership isolated and charge quotas
  the full *logical* usage.
* **Admission** — bearer-token auth (:class:`TokenAuthenticator`),
  per-tenant storage quotas, and a token-bucket rate limiter, all
  enforced before a request touches repository state, all answered
  with typed protocol errors clients can distinguish.

Layering::

    backend.py   SharedChunkBackend + TenantChunkStore (refcounted views)
    auth.py      TenantConfig, TokenAuthenticator, name grammar
    quota.py     TokenBucket, incoming-bytes arithmetic
    hub.py       RepositoryHub (routing, LRU, persistence, admission), and
                 serve_hub: the shared HTTP server, routed /t/<tenant>/<repo>/rpc

Quickstart::

    from repro.hub import RepositoryHub
    from repro.remote.server import share_one_heap

    share_one_heap()  # one malloc heap for every handler thread, as `repro hub serve`
    hub = RepositoryHub("/srv/mlcask-hub")
    hub.add_tenant("ana", tokens=["ana-secret"], quota_bytes=10**9)
    hub.add_tenant("ben", tokens=["ben-secret"], quota_bytes=10**9)

    # clients: repro push <dir> http://host:8321/t/ana/pipelines --token ana-secret
    from repro.hub import serve_hub
    serve_hub(hub, port=8321).serve_forever()
"""

from .auth import TenantConfig, TokenAuthenticator, validate_name
from .backend import SharedChunkBackend, TenantChunkStore
from .hub import HostedRepository, HubLocalTransport, RepositoryHub, serve_hub
from .quota import TokenBucket, incoming_new_bytes

__all__ = [
    "HostedRepository",
    "HubLocalTransport",
    "RepositoryHub",
    "SharedChunkBackend",
    "TenantChunkStore",
    "TenantConfig",
    "TokenAuthenticator",
    "TokenBucket",
    "incoming_new_bytes",
    "serve_hub",
    "validate_name",
]
