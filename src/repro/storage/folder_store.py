"""Folder-archival store: the baselines' storage mechanism.

Per paper section VII-B, ModelDB and MLflow "archive different versions of
libraries and intermediate results into separate folders": every version is
a full copy, so logical bytes equal physical bytes and storage grows
linearly with versions (the ModelDB line in Fig. 7). Writes are nearly
instantaneous compared to a deduplicating engine because the store does no
chunking or hashing — the paper notes the baselines "almost instantaneously
materialize the reusable outputs while MLCask takes a few seconds".
"""

from __future__ import annotations

import os

from ..errors import ObjectNotFoundError
from .accounting import StorageStats


class FolderStore:
    """Archive each (namespace, version) as an independent full copy."""

    def __init__(self, root: str | os.PathLike[str] | None = None):
        # With a root, copies land on the real filesystem; without one the
        # store is memory-backed, which keeps experiments fast while still
        # paying a byte-copy per archival (the baselines' true cost shape).
        self.root = os.fspath(root) if root is not None else None
        if self.root is not None:
            os.makedirs(self.root, exist_ok=True)
        self._memory: dict[tuple[str, str], bytes] = {}
        self.stats = StorageStats()

    def _path(self, namespace: str, version: str) -> str:
        assert self.root is not None
        folder = os.path.join(self.root, namespace, version)
        os.makedirs(folder, exist_ok=True)
        return os.path.join(folder, "data.bin")

    def archive(self, namespace: str, version: str, data: bytes) -> None:
        """Store a full copy of ``data`` under its own version folder."""
        with self.stats.timed_write():
            self.stats.record_logical(len(data))
            self.stats.record_physical(len(data))  # no dedup: every copy held
            if self.root is not None:
                with open(self._path(namespace, version), "wb") as fh:
                    fh.write(data)
            else:
                self._memory[(namespace, version)] = bytes(data)

    def retrieve(self, namespace: str, version: str) -> bytes:
        with self.stats.timed_read():
            if self.root is not None:
                path = self._path(namespace, version)
                if not os.path.exists(path):
                    raise ObjectNotFoundError(f"{namespace}/{version}")
                with open(path, "rb") as fh:
                    data = fh.read()
            else:
                try:
                    data = self._memory[(namespace, version)]
                except KeyError:
                    raise ObjectNotFoundError(f"{namespace}/{version}") from None
        self.stats.record_reads(1, len(data), 0.0)
        return data

    def contains(self, namespace: str, version: str) -> bool:
        if self.root is not None:
            return os.path.exists(self._path(namespace, version))
        return (namespace, version) in self._memory

    def versions(self, namespace: str) -> list[str]:
        if self.root is not None:
            folder = os.path.join(self.root, namespace)
            if not os.path.isdir(folder):
                return []
            return sorted(os.listdir(folder))
        return sorted(v for (ns, v) in self._memory if ns == namespace)
