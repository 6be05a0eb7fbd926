"""ForkBase-like branchable versioned key-value store.

ForkBase exposes a Git-like data model: every ``put`` creates an immutable
version node that points at its predecessor, and named branches track heads
per key. MLCask's repositories (dataset / library / pipeline) sit on top of
this layer. Values are stored as blobs in the chunked object store, so
versions of the same key share storage for their common bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BranchNotFoundError, ObjectNotFoundError
from .hashing import fingerprint_many
from .object_store import ObjectStore

DEFAULT_BRANCH = "master"


@dataclass(frozen=True)
class VersionNode:
    """Immutable version of one key: blob pointer plus lineage."""

    key: str
    version_id: str
    blob_digest: str
    branch: str
    parents: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict, compare=False)


class VersionedKV:
    """Branchable multi-version map ``key -> bytes``."""

    def __init__(self, objects: ObjectStore | None = None):
        self.objects = objects if objects is not None else ObjectStore()
        self._versions: dict[str, VersionNode] = {}
        # heads[key][branch] -> version_id
        self._heads: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------ put
    def put(
        self,
        key: str,
        value: bytes,
        branch: str = DEFAULT_BRANCH,
        meta: dict | None = None,
    ) -> VersionNode:
        """Write a new version of ``key`` on ``branch`` and advance its head."""
        blob_digest = self.objects.put(value)
        parent = self._heads.get(key, {}).get(branch)
        parents = (parent,) if parent else ()
        version_id = fingerprint_many([key, branch, blob_digest, *parents])
        node = VersionNode(
            key=key,
            version_id=version_id,
            blob_digest=blob_digest,
            branch=branch,
            parents=parents,
            meta=dict(meta or {}),
        )
        self._versions[version_id] = node
        self._heads.setdefault(key, {})[branch] = version_id
        return node

    # ------------------------------------------------------------------ get
    def get(self, key: str, branch: str = DEFAULT_BRANCH) -> bytearray:
        """Value at the head of ``branch`` for ``key`` (a fresh buffer,
        see :meth:`ObjectStore.get`)."""
        return self.objects.get(self.head(key, branch).blob_digest)

    def get_version(self, version_id: str) -> bytearray:
        node = self.node(version_id)
        return self.objects.get(node.blob_digest)

    def node(self, version_id: str) -> VersionNode:
        if version_id not in self._versions:
            raise ObjectNotFoundError(version_id)
        return self._versions[version_id]

    def head(self, key: str, branch: str = DEFAULT_BRANCH) -> VersionNode:
        heads = self._heads.get(key, {})
        if branch not in heads:
            raise BranchNotFoundError(f"{key}@{branch}")
        return self._versions[heads[branch]]

    def contains(self, key: str, branch: str = DEFAULT_BRANCH) -> bool:
        return branch in self._heads.get(key, {})

    # -------------------------------------------------------------- branches
    def fork(self, key: str, from_branch: str, new_branch: str) -> VersionNode:
        """Create ``new_branch`` for ``key`` pointing at ``from_branch``'s head."""
        node = self.head(key, from_branch)
        self._heads[key][new_branch] = node.version_id
        return node

    def branches(self, key: str) -> list[str]:
        return sorted(self._heads.get(key, {}))

    def keys(self) -> list[str]:
        return sorted(self._heads)

    # --------------------------------------------------------------- history
    def history(self, key: str, branch: str = DEFAULT_BRANCH) -> list[VersionNode]:
        """Version chain from the branch head back to the root, head first.

        Follows first parents only, which is sufficient for the per-key
        linear chains the repositories create (pipeline-level non-linearity
        lives in the commit graph, not here).
        """
        chain = []
        cursor: str | None = self.head(key, branch).version_id
        while cursor is not None:
            node = self._versions[cursor]
            chain.append(node)
            cursor = node.parents[0] if node.parents else None
        return chain

    @property
    def stats(self):
        return self.objects.stats
