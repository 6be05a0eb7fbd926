"""Checkpoint stores: archived component outputs keyed for reuse.

Section III: "Once a pipeline is fully processed, all its component outputs
are archived for future reuse." Section VI-B builds the PR pruning on top:
"if a component of the pipeline candidate was executed before, it does not
need to be executed again since its output has already been saved and thus
can be reused."

A checkpoint is keyed by the pair *(component fingerprint, input content
reference)* — the same component version fed the same input bytes always
produces the same archived output, so the key is exactly the reuse
condition. Two persistence backends implement the same interface:

* :class:`ChunkedCheckpointStore` — MLCask's path: outputs go through the
  deduplicating object store (ForkBase-like);
* :class:`FolderCheckpointStore` — the baselines' path: every output is a
  full copy in its own folder.

Concurrency contract: every public operation (``lookup``, ``save``,
``load``, ``import_record``, ``prune``, ``records``, ``len``) is atomic
under one reentrant lock shared by the index, the ``revision`` counter,
and the ``save_seconds``/``load_seconds`` accumulators — so the parallel
engine's workers may share one store freely. The lock is *held across
backend persistence* (``_persist``/``_retrieve``): the backends
(:class:`~repro.storage.object_store.ObjectStore`, folder archives) are
not internally thread-safe, so storage traffic serializes while component
compute — and payload (de)serialization, which happens outside the
lock — runs in parallel. The store only prevents torn state, not
duplicate work — two racing ``save`` calls for one key both persist (the
content-addressed backend dedups the bytes; last index write wins, both
writes being identical records). Computing a key at most once is the
engine's single-flight layer (:mod:`repro.engine.single_flight`), built
on top of this contract.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import islice

from ..storage.accounting import StorageStats
from ..storage.folder_store import FolderStore
from ..storage.hashing import fingerprint_many
from ..storage.object_store import ObjectStore
from .component import Component


@dataclass(frozen=True)
class CheckpointRecord:
    """One archived component output."""

    key: str
    component_id: str
    output_ref: str
    output_bytes: int
    run_seconds: float
    metrics: dict = field(default_factory=dict, compare=False)


def checkpoint_key(component: Component, input_ref: str) -> str:
    """Reuse key: same component version + params + input content."""
    return fingerprint_many(["checkpoint", component.fingerprint, input_ref])


class CheckpointStore(ABC):
    """Index of checkpoint records over a persistence backend."""

    def __init__(self) -> None:
        self._index: dict[str, CheckpointRecord] = {}
        self.save_seconds = 0.0
        self.load_seconds = 0.0
        # Mutation counter: a staleness token for response caches.
        self.revision = 0
        #: 0 once :meth:`prune` removed records (every later row shifts),
        #: until a save has rewritten the journal that may hold them.
        self.amended_from: int | None = None
        # Guards the index, revision, timing accumulators, and backend
        # persistence — see the module docstring's concurrency contract.
        # Reentrant so a subclass helper may call public operations.
        self._lock = threading.RLock()

    # ------------------------------------------------------------ interface
    @abstractmethod
    def _persist(self, key: str, data: bytes) -> str:
        """Store bytes; return a retrieval reference."""

    @abstractmethod
    def _retrieve(self, record: CheckpointRecord) -> bytes | bytearray:
        """The record's bytes; a ``bytearray`` is handed over to the
        decoder, so a backend returns one only if nobody else holds it."""

    @property
    @abstractmethod
    def stats(self) -> StorageStats: ...

    # ------------------------------------------------------------ operations
    def lookup(self, component: Component, input_ref: str) -> CheckpointRecord | None:
        with self._lock:
            return self._index.get(checkpoint_key(component, input_ref))

    def save(
        self,
        component: Component,
        input_ref: str,
        payload,
        run_seconds: float,
        metrics: dict | None = None,
    ) -> CheckpointRecord:
        from ..data.serialize import payload_to_bytes  # numpy: client tier only

        key = checkpoint_key(component, input_ref)
        start = time.perf_counter()
        # Serialization is pure CPU on caller-owned data — outside the
        # lock, so concurrent workers don't serialize their encodes.
        data = payload_to_bytes(payload)
        with self._lock:
            output_ref = self._persist(key, data)
            self.save_seconds += time.perf_counter() - start
            record = CheckpointRecord(
                key=key,
                component_id=component.identifier,
                output_ref=output_ref,
                output_bytes=len(data),
                run_seconds=run_seconds,
                metrics=dict(metrics or {}),
            )
            self._index[key] = record
            self.revision += 1
            return record

    def load(self, record: CheckpointRecord):
        """The archived output of ``record``, decoded.

        From the chunked store the blob arrives as a fresh ``bytearray``
        (``ObjectStore.get``) that the decoder adopts: the dense arrays
        of the payload are writable views into that one private buffer
        and do not own their data. Writing into one changes neither the
        store nor a later load."""
        from ..data.serialize import payload_from_bytes  # numpy: client tier only

        start = time.perf_counter()
        with self._lock:
            data = self._retrieve(record)
        # Deserialization outside the lock, like save's encode.
        payload = payload_from_bytes(data)
        with self._lock:
            self.load_seconds += time.perf_counter() - start
        return payload

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def records(self, start: int = 0) -> list[CheckpointRecord]:
        """Records currently indexed, in arrival order, from the
        ``start``-th on."""
        with self._lock:
            return list(islice(self._index.values(), start, None))

    def import_record(self, record: CheckpointRecord) -> bool:
        """Adopt a record replicated from a peer or loaded from disk.

        The key is content-derived (component fingerprint + input
        content), so an imported record enables checkpoint reuse here
        under exactly the conditions it did at its origin. Returns False
        when the key is already indexed.
        """
        with self._lock:
            if record.key in self._index:
                return False
            self._index[record.key] = record
            self.revision += 1
            return True

    def prune(self, live_refs: set[str]) -> int:
        """Drop index entries whose output is no longer held (post-GC);
        returns the number of records removed."""
        with self._lock:
            dead = [
                key
                for key, record in self._index.items()
                if record.output_ref not in live_refs
            ]
            for key in dead:
                del self._index[key]
            if dead:
                self.revision += 1
                self.amended_from = 0
            return len(dead)


class ChunkedCheckpointStore(CheckpointStore):
    """MLCask's checkpoint path: deduplicating chunked object store."""

    def __init__(self, objects: ObjectStore | None = None):
        super().__init__()
        self.objects = objects if objects is not None else ObjectStore()

    def _persist(self, key: str, data: bytes) -> str:
        return self.objects.put(data)

    def _retrieve(self, record: CheckpointRecord) -> bytearray:
        return self.objects.get(record.output_ref)

    @property
    def stats(self) -> StorageStats:
        return self.objects.stats


class FolderCheckpointStore(CheckpointStore):
    """Baselines' checkpoint path: one full folder copy per output."""

    def __init__(self, folders: FolderStore | None = None):
        super().__init__()
        self.folders = folders if folders is not None else FolderStore()
        self._counter = 0

    def _persist(self, key: str, data: bytes) -> str:
        # Each archive lands in its own version folder, like the paper's
        # baselines; the counter mirrors "iteration N's output directory".
        self._counter += 1
        version = f"v{self._counter:06d}"
        self.folders.archive(key, version, data)
        return f"{key}/{version}"

    def _retrieve(self, record: CheckpointRecord) -> bytes:
        namespace, version = record.output_ref.rsplit("/", 1)
        return self.folders.retrieve(namespace, version)

    @property
    def stats(self) -> StorageStats:
        return self.folders.stats
