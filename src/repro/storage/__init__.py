"""ForkBase-like storage substrate: chunking, content addressing, versioned KV.

Public surface:

* :class:`ContentDefinedChunker` / :class:`FixedSizeChunker` — blob splitting
* :class:`MemoryChunkStore` / :class:`FileChunkStore` — chunk persistence
* :class:`ObjectStore` — whole-blob storage via chunk recipes
* :class:`VersionedKV` — branchable versioned key-value layer
* :class:`FolderStore` — the baselines' full-copy archival store
* schema-hash helpers from :mod:`repro.storage.hashing`
"""

from typing import TYPE_CHECKING

from .accounting import StorageStats
from .chunk_store import ChunkStore, FileChunkStore, MemoryChunkStore
from .folder_store import FolderStore
from .gc import GCReport, collect_garbage, live_digests_of_repo
from .hashing import (
    array_schema_hash,
    fingerprint_many,
    image_schema_hash,
    meta_schema_hash,
    relational_schema_hash,
    sha256_hex,
    short_digest,
    standardize_header,
    text_schema_hash,
)
from .kv import DEFAULT_BRANCH, VersionedKV, VersionNode
from .object_store import ObjectStore, Recipe

if TYPE_CHECKING:
    from .chunking import ChunkerConfig, ContentDefinedChunker, FixedSizeChunker, rolling_hashes


def __getattr__(name: str):
    # PEP 562: chunking is the one numpy module here; a serving process never splits a blob.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import chunking

    return getattr(chunking, name)


__all__ = [
    "StorageStats",
    "ChunkStore",
    "FileChunkStore",
    "MemoryChunkStore",
    "ChunkerConfig",
    "ContentDefinedChunker",
    "FixedSizeChunker",
    "rolling_hashes",
    "FolderStore",
    "GCReport", "collect_garbage", "live_digests_of_repo",
    "array_schema_hash",
    "fingerprint_many",
    "image_schema_hash",
    "meta_schema_hash",
    "relational_schema_hash",
    "sha256_hex",
    "short_digest",
    "standardize_header",
    "text_schema_hash",
    "DEFAULT_BRANCH",
    "VersionedKV",
    "VersionNode",
    "ObjectStore",
    "Recipe",
]
