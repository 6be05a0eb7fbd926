"""Storage accounting: the numbers behind CSS and CST in the evaluation.

The paper's evaluation metrics (section VII-B) include cumulative storage
size (CSS) and cumulative storage time (CST). Both MLCask's chunked store
and the baselines' folder stores report through this module so experiments
can read consistent counters:

* ``logical_bytes``  — bytes callers asked to persist (every version counted
  in full, like the baselines' disk folders would hold);
* ``physical_bytes`` — bytes actually held after content dedup;
* ``write_seconds`` / ``read_seconds`` — wall-clock spent inside the store,
  the "storage time" component of pipeline time.

A stats block can additionally *mirror* its byte counters into a
:class:`~repro.obs.metrics.MetricsRegistry` (:meth:`StorageStats.
bind_registry`), labelled per tenant/repo — that is how chunk I/O shows
up on a hub's ``/metrics`` without the store layer knowing anything
about serving. Unbound stats (the default) pay nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class StorageStats:
    """Mutable counter block attached to every store."""

    logical_bytes: int = 0
    physical_bytes: int = 0
    dedup_hit_bytes: int = 0
    read_bytes: int = 0
    write_seconds: float = 0.0
    read_seconds: float = 0.0
    writes: int = 0
    reads: int = 0
    _extra: dict[str, float] = field(default_factory=dict)
    #: Registry counter children mirroring the byte counters (see
    #: :meth:`bind_registry`); None (the default) mirrors nowhere.
    _mirror: dict | None = field(default=None, repr=False, compare=False)

    def bind_registry(self, registry, tenant: str = "-", repo: str = "-"):
        """Mirror byte counters into ``registry`` as per-tenant/repo series.

        Binding to the null registry unbinds (mirror calls cost nothing
        either way, but an unbound block skips them entirely). Returns
        ``self`` so construction sites can chain.
        """
        from ..obs.metrics import NULL_METRIC

        labels = {"tenant": str(tenant), "repo": str(repo)}
        names = ("tenant", "repo")
        mirror = {
            "logical": registry.counter(
                "repro_chunk_logical_bytes_total",
                "Bytes callers asked the chunk store to persist.",
                labels=names,
            ).labels(**labels),
            "written": registry.counter(
                "repro_chunk_written_bytes_total",
                "Bytes physically written after content dedup.",
                labels=names,
            ).labels(**labels),
            "dedup": registry.counter(
                "repro_chunk_dedup_hit_bytes_total",
                "Bytes deduplicated away (content already held).",
                labels=names,
            ).labels(**labels),
            "read": registry.counter(
                "repro_chunk_read_bytes_total",
                "Bytes read back out of the chunk store.",
                labels=names,
            ).labels(**labels),
        }
        self._mirror = None if mirror["logical"] is NULL_METRIC else mirror
        return self

    def record_logical(self, n: int) -> None:
        self.logical_bytes += n
        self.writes += 1
        if self._mirror is not None:
            self._mirror["logical"].inc(n)

    def record_physical(self, n: int) -> None:
        self.physical_bytes += n
        # Counters only go up: a GC sweep shrinks physical_bytes here but
        # the written-bytes series stays cumulative, Prometheus-style.
        if self._mirror is not None and n > 0:
            self._mirror["written"].inc(n)

    def record_dedup_hit(self, n: int) -> None:
        self.dedup_hit_bytes += n
        if self._mirror is not None:
            self._mirror["dedup"].inc(n)

    def record_put(
        self, pieces: int, logical: int, written: int, dedup: int, seconds: float
    ) -> None:
        """One batch of ``pieces`` pieces put in ``seconds``: ``logical``
        bytes asked for, of which ``written`` were new and ``dedup``
        already held — the whole accounting step of
        :meth:`ChunkStore.put_many`, equal to what ``record_logical`` +
        ``record_physical``/``record_dedup_hit`` per piece would book."""
        self.writes += pieces
        self.logical_bytes += logical
        self.physical_bytes += written
        self.dedup_hit_bytes += dedup
        self.write_seconds += seconds
        mirror = self._mirror
        if mirror is not None:
            mirror["logical"].inc(logical)
            if written:
                mirror["written"].inc(written)
            if dedup:
                mirror["dedup"].inc(dedup)

    def record_reads(self, reads: int, n: int, seconds: float) -> None:
        """``reads`` completed reads of ``n`` bytes in all, that took
        ``seconds`` — the whole accounting step of one
        :meth:`ChunkStore.get` (one read) or one :meth:`ChunkStore.join`
        (a blob's chunks, booked as the ``get`` of each would book them)."""
        self.read_bytes += n
        self.reads += reads
        self.read_seconds += seconds
        if self._mirror is not None:
            self._mirror["read"].inc(n)

    @contextmanager
    def timed_write(self):
        """Add the wall-clock of the ``with`` body to ``write_seconds``.

        For coarse, per-blob callers — ``ObjectStore.put``'s whole-blob
        dedup branch and ``FolderStore.archive`` are the ones left. What
        runs once per *chunk* (``ChunkStore.import_chunk``; ``put_many``
        passes its one window to :meth:`record_put`) reads the clock twice
        inline instead: a generator context manager per 5 KB chunk costs
        more than the accounting it wraps (see "per-chunk paths" in
        docs/invariants.md)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.write_seconds += time.perf_counter() - start

    @contextmanager
    def timed_read(self):
        """Read-side twin of :meth:`timed_write`; its one remaining caller
        is ``FolderStore.retrieve`` (one call per archived version).
        ``ChunkStore.get`` passes its elapsed time to :meth:`record_reads`."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.read_seconds += time.perf_counter() - start

    @property
    def dedup_ratio(self) -> float:
        """Logical over physical bytes; 1.0 means no savings."""
        if self.physical_bytes == 0:
            return 1.0
        return self.logical_bytes / self.physical_bytes

    @property
    def storage_seconds(self) -> float:
        """Total time spent in the store (write + read)."""
        return self.write_seconds + self.read_seconds

    def snapshot(self) -> dict[str, float]:
        """Plain-dict copy for experiment logs."""
        return {
            "logical_bytes": self.logical_bytes,
            "physical_bytes": self.physical_bytes,
            "dedup_hit_bytes": self.dedup_hit_bytes,
            "read_bytes": self.read_bytes,
            "write_seconds": self.write_seconds,
            "read_seconds": self.read_seconds,
            "writes": self.writes,
            "reads": self.reads,
        }

    def merged_with(self, other: "StorageStats") -> "StorageStats":
        """Combine counters from two stores (for whole-system totals)."""
        merged = StorageStats(
            logical_bytes=self.logical_bytes + other.logical_bytes,
            physical_bytes=self.physical_bytes + other.physical_bytes,
            dedup_hit_bytes=self.dedup_hit_bytes + other.dedup_hit_bytes,
            read_bytes=self.read_bytes + other.read_bytes,
            write_seconds=self.write_seconds + other.write_seconds,
            read_seconds=self.read_seconds + other.read_seconds,
            writes=self.writes + other.writes,
            reads=self.reads + other.reads,
        )
        return merged
