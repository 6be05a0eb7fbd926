"""Shared chunk backend: one physical copy of every chunk, hub-wide.

This is the storage story of the multi-tenant hub, DataHub-style: a
chunk pushed by *any* tenant is stored once per deployment, while each
tenant still sees — and is charged for — its own logical holdings.
Two classes split the work:

* :class:`SharedChunkBackend` owns the bytes. It wraps any
  :class:`~repro.storage.chunk_store.ChunkStore` (memory for tests,
  :class:`~repro.storage.chunk_store.FileChunkStore` for a durable hub)
  and refcounts each digest by the number of *holders* — repositories,
  loaded or persisted, that list the chunk among their holdings. Bytes
  are physically discarded only when the last holder releases them.
* :class:`TenantChunkStore` is one repository's *view* of the backend.
  It implements the full ``ChunkStore`` interface, so a hub-hosted
  ``MLCask`` plugs it in unchanged, but membership is per-view: a
  tenant can neither read nor enumerate chunks it never stored, even
  when the backend happens to hold them for someone else (no
  cross-tenant existence oracle). Writes that hit bytes another tenant
  already contributed cost no new physical storage — that is the
  deployment-wide dedup the hub benchmark measures.

Accounting: a view's ``held_bytes`` is the tenant-logical usage quotas
charge (every held chunk counted in full); the backend's
``physical_bytes`` is what the deployment actually stores.
"""

from __future__ import annotations

import sys
import threading
from itertools import islice

from ..errors import ChunkIntegrityError, ChunkNotFoundError
from ..storage.chunk_store import ChunkStore, MemoryChunkStore


class SharedChunkBackend:
    """Deployment-wide content-addressed bytes with holder refcounts.

    ``store`` is the byte holder (defaults to an in-memory store). The
    refcount table is rebuilt at hub startup from every persisted
    repository's holdings manifest — see
    :meth:`register_holdings` — so restarts never double-count.
    """

    def __init__(self, store: ChunkStore | None = None):
        self.store = store if store is not None else MemoryChunkStore()
        self._lock = threading.RLock()
        self._refcounts: dict[str, int] = {}
        #: Digests whose first write is in flight (digest -> completion
        #: event). The byte write — for a file store, a disk write — runs
        #: *outside* the backend lock so two tenants pushing different
        #: chunks make parallel progress; racers on the *same* digest wait
        #: here instead of re-writing.
        self._writing: dict[str, threading.Event] = {}
        # Tracked here, not read off the store's stats: a restarted hub
        # wraps a fresh FileChunkStore whose counters start at zero even
        # though the bytes are on disk — the refcount rebuild
        # (:meth:`register_holdings`) restores this number with them.
        self._physical_bytes = 0

    # ------------------------------------------------------------ queries
    @property
    def physical_bytes(self) -> int:
        """Bytes the deployment actually stores (post cross-tenant dedup)."""
        with self._lock:
            return self._physical_bytes

    def chunk_count(self) -> int:
        with self._lock:
            return len(self._refcounts)

    def refcount(self, digest: str) -> int:
        with self._lock:
            return self._refcounts.get(digest, 0)

    def read(self, digest: str) -> bytes:
        return self.store.get(digest)

    # ---------------------------------------------------------- mutation
    def acquire(self, digest: str, data: bytes | memoryview) -> bool:
        """Register one new holder of ``digest``, storing bytes if novel.

        Returns True when this call took the digest from zero holders to
        one (physical accounting grew), False when another holder
        already contributed it. ``data`` must hash to ``digest``: the
        only caller, :meth:`TenantChunkStore._write`, gets bytes that
        the view's ``import_chunk`` verified or its ``put_many`` derived
        the digest of, so the bytes are stored through the store's
        non-verifying :meth:`~repro.storage.chunk_store.ChunkStore.adopt`
        and a pushed chunk is hashed once on the hub, not twice. A pushed
        chunk arrives as a view into its request and is copied only by a
        store that keeps bytes in memory.

        Lock discipline: only the refcount/ownership bookkeeping runs
        under the backend lock. The byte write itself happens unlocked —
        the writer of a digest is elected under the lock, concurrent
        acquirers of the *same* digest block on its completion event,
        and everyone else proceeds in parallel. A chunk is refcounted
        only once its bytes are written, so a holder can always read
        what it holds; they are durable from the next :meth:`flush`,
        which a repository's persist runs before its header names them.
        """
        while True:
            with self._lock:
                count = self._refcounts.get(digest, 0)
                if count:
                    # Bytes are in the store (refcounts are only set after
                    # a completed write or a startup manifest scan).
                    self._refcounts[digest] = count + 1
                    return False
                writing = self._writing.get(digest)
                if writing is None:
                    writing = self._writing[digest] = threading.Event()
                    break  # this thread owns the write
            # Another thread is writing these bytes right now: wait for
            # it, then retry — the fast path above will take the ref.
            writing.wait()

        try:
            # Bytes a crashed hub left are adopted, not re-written. Either
            # way this call takes the digest from zero holders to one, so
            # the bytes start counting now.
            self.store.adopt(digest, data)
        except BaseException:
            with self._lock:
                del self._writing[digest]
            writing.set()
            raise
        with self._lock:
            self._physical_bytes += len(data)
            self._refcounts[digest] = self._refcounts.get(digest, 0) + 1
            del self._writing[digest]
        writing.set()
        return True

    def release(self, digest: str) -> int:
        """Drop one holder; discard from the store at refcount zero.

        Returns the physical bytes no longer held (0 while other holders
        remain); the store gives the space back in :meth:`compact`. Same
        lock discipline as :meth:`acquire`: the refcount decision runs
        under the lock, the store's discard does not, and the digest is
        marked in-flight so a racing re-acquire waits for the discard to
        finish instead of adopting bytes about to vanish.
        """
        while True:
            with self._lock:
                count = self._refcounts.get(digest, 0)
                if count > 1:
                    self._refcounts[digest] = count - 1
                    return 0
                writing = self._writing.get(digest)
                if writing is None:
                    self._refcounts.pop(digest, None)
                    writing = self._writing[digest] = threading.Event()
                    break  # this thread owns the discard
            # The digest is mid-write or mid-discard elsewhere: wait for
            # that to settle, then re-evaluate.
            writing.wait()
        try:
            reclaimed = self.store.discard(digest)
            with self._lock:
                self._physical_bytes -= reclaimed
        finally:
            with self._lock:
                del self._writing[digest]
            writing.set()
        return reclaimed

    def register_holdings(self, holdings: dict[str, int]) -> None:
        """Adopt a persisted repository's holdings (digest -> size) into
        the refcounts.

        Called once per persisted repo at hub startup; the bytes are
        already in the underlying store (they were written through a
        live view before the repo was persisted), so only the first
        holder of a digest re-adds its size to the physical total.
        """
        with self._lock:
            for digest, size in holdings.items():
                count = self._refcounts.get(digest, 0)
                if count == 0:
                    self._physical_bytes += size
                    digest = sys.intern(digest)  # the store's key string
                self._refcounts[digest] = count + 1

    def flush(self) -> None:
        """Put every chunk written so far on disk."""
        self.store.flush()

    def compact(self) -> None:
        """Give back the space of chunks no repository holds.

        For after the commit point of whatever stopped holding them (a
        sweep's header). Chunks the store holds
        without a holder — what a push or a sweep that died before its
        commit point left — are discarded first, under the same election
        as :meth:`release`, so one being adopted right now is left alone.
        """
        stored = self.store.digests()
        with self._lock:
            unheld = [d for d in stored if d not in self._refcounts]
        for digest in unheld:
            with self._lock:
                if digest in self._refcounts or digest in self._writing:
                    continue  # acquired, or being acquired, since the scan
                writing = self._writing[digest] = threading.Event()
            try:
                self.store.discard(digest)
            finally:
                with self._lock:
                    del self._writing[digest]
                writing.set()
        self.store.compact()


class TenantChunkStore(ChunkStore):
    """One hosted repository's membership-scoped view of the backend.

    ``holdings`` (digest -> size) re-attaches a view to chunks a
    persisted repository already holds; refcounts are *not* touched for
    adopted holdings — they were registered when the hub scanned the
    repo's manifest (or never dropped, for an evict/reload cycle).

    Every digest the view keeps — a holding, and each chunk digest of a
    recipe registered against it (:meth:`canonical`) — is interned, so
    the many recipes of a repository that name one chunk, its holdings,
    the backend's refcounts and the store's index share one string per
    chunk, freed with its last reference.
    """

    def __init__(
        self,
        backend: SharedChunkBackend,
        holdings: dict[str, int] | None = None,
    ):
        super().__init__()
        self.backend = backend
        self._held: dict[str, int] = {
            sys.intern(digest): size for digest, size in (holdings or {}).items()
        }
        self._held_bytes = sum(self._held.values())
        # The view's stats speak tenant-logical language: "physical" here
        # is what this repository holds, regardless of how many other
        # tenants share the bytes underneath.
        self.stats.physical_bytes = self._held_bytes

    # ------------------------------------------------- ChunkStore hooks
    def _contains(self, digest: str) -> bool:
        return digest in self._held

    @staticmethod
    def canonical(digests: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(map(sys.intern, digests))

    def _write(self, digest: str, data: bytes | memoryview) -> None:
        digest = sys.intern(digest)
        self.backend.acquire(digest, data)
        self._held[digest] = len(data)
        self._held_bytes += len(data)

    def _read(self, digest: str) -> bytes:
        # Membership first, before the backend is touched: an unheld
        # digest costs no I/O and answers the same whether or not some
        # other tenant's bytes sit underneath (no existence oracle).
        size = self._held.get(digest)
        if size is None:
            raise ChunkNotFoundError(digest)
        # A held digest the shared store lost out-of-band raises the
        # backend's own ChunkNotFoundError: this view's normal miss.
        data = self.backend.read(digest)
        if len(data) != size:
            # Truncated or overwritten on disk. The holdings row knows
            # the size, so refuse here rather than frame and ship bytes
            # every client's re-hash will reject.
            raise ChunkIntegrityError(digest)
        return data

    def _delete(self, digest: str) -> None:
        size = self._held.pop(digest)
        self._held_bytes -= size
        self.backend.release(digest)

    def _size(self, digest: str) -> int:
        size = self._held.get(digest)
        if size is None:
            raise ChunkNotFoundError(digest)
        return size

    def digests(self) -> list[str]:
        return list(self._held)

    def flush(self) -> None:
        self.backend.flush()

    # ------------------------------------------------------- accounting
    @property
    def held_bytes(self) -> int:
        """Tenant-logical bytes this repository holds (quota currency)."""
        return self._held_bytes

    def holdings(self, start: int = 0) -> dict[str, int]:
        """Snapshot of digest -> size in arrival order, from the
        ``start``-th holding on, for the persisted manifest."""
        return dict(islice(self._held.items(), start, None))
