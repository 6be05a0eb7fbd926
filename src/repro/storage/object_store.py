"""Blob layer: whole objects stored as recipes of content-defined chunks.

A *blob* is any byte string a pipeline wants persisted (a serialized table,
a model checkpoint, a library tarball). The object store splits the blob
with the content-defined chunker, pushes each chunk into the chunk store,
and keeps a :class:`Recipe` — the ordered list of chunk digests — under the
blob's own content digest. Two versions of a component output that share
most of their bytes therefore share most of their chunks, which is how
MLCask's "chunk level de-duplication supported by its ForkBase storage
engine" (section VII-C) materializes here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING

from ..errors import ObjectNotFoundError
from .chunk_store import ChunkStore, MemoryChunkStore
from .hashing import sha256_hex

if TYPE_CHECKING:
    from .chunking import ContentDefinedChunker


@dataclass(frozen=True)
class Recipe:
    """How to reassemble a blob: ordered chunk digests plus total size."""

    blob_digest: str = field(metadata={"wire": "blob"})
    chunk_digests: tuple[str, ...] = field(metadata={"wire": "chunks"})
    size: int

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_digests)


class ObjectStore:
    """Chunked blob store with git-style content addressing."""

    def __init__(
        self,
        chunk_store: ChunkStore | None = None,
        chunker: ContentDefinedChunker | None = None,
    ):
        self.chunks = chunk_store if chunk_store is not None else MemoryChunkStore()
        if chunker is not None:
            self.chunker = chunker
        self._recipes: dict[str, Recipe] = {}
        # Recipe-membership mutation counter: a staleness token for
        # response caches (the chunk store keeps its own).
        self.revision = 0

    @cached_property
    def chunker(self) -> ContentDefinedChunker:
        """Default, built by the first :meth:`put`: a hub never loads numpy."""
        from .chunking import ContentDefinedChunker

        return ContentDefinedChunker()

    def put(self, data: bytes) -> str:
        """Persist ``data``; return its blob digest (idempotent).

        The blob is hashed whole once; its chunks go to
        :meth:`ChunkStore.put_many`, which finds the ones the store
        already holds by a key lookup and a byte comparison and hashes
        only the rest, so a new version of a held blob costs hashing
        what changed, not its size."""
        digest = sha256_hex(data)
        if digest in self._recipes:
            # Re-storing a known blob still counts as logical bytes written:
            # the caller produced the data again, the engine deduped it.
            with self.chunks.stats.timed_write():
                self.chunks.stats.record_logical(len(data))
                self.chunks.stats.record_dedup_hit(len(data))
            return digest
        chunk_digests = tuple(self.chunks.put_many(self.chunker.split(data)))
        self._recipes[digest] = Recipe(digest, chunk_digests, len(data))
        self.revision += 1
        return digest

    def get(self, digest: str) -> bytearray:
        """Reassemble and return the blob for ``digest``: its chunks
        joined into a fresh ``bytearray`` nobody else holds
        (:meth:`ChunkStore.join`, one pass, one accounting step).

        The caller owns it. ``payload_from_bytes`` adopts it whole: the
        dense arrays it decodes are writable views into this one private
        buffer and do not own their data, and writing into them changes
        neither the store nor a later ``get``."""
        return self.chunks.join(self.recipe(digest).chunk_digests)

    def recipe(self, digest: str) -> Recipe:
        if digest not in self._recipes:
            raise ObjectNotFoundError(digest)
        return self._recipes[digest]

    def contains(self, digest: str) -> bool:
        return digest in self._recipes

    # ------------------------------------------------------- replication
    def recipes(self, start: int = 0) -> list[Recipe]:
        """Recipes currently held, in arrival order, from the ``start``-th
        on (for persistence and remote sync)."""
        return list(islice(self._recipes.values(), start, None))

    def add_recipe(self, recipe: Recipe) -> None:
        """Register a recipe received from a peer or loaded from disk.

        The chunks it references may arrive separately (and later): a
        recipe is pure metadata, so holding one for not-yet-fetched
        content is fine — :meth:`get` fails chunk-by-chunk until the
        content lands. Its chunk digests are kept as the chunk store's
        :meth:`~ChunkStore.canonical` gives them back.
        """
        if recipe.blob_digest not in self._recipes:
            chunk_digests = self.chunks.canonical(recipe.chunk_digests)
            if chunk_digests is not recipe.chunk_digests:
                recipe = Recipe(recipe.blob_digest, chunk_digests, recipe.size)
            self._recipes[recipe.blob_digest] = recipe
            self.revision += 1

    def reachable_chunks(self, blob_digests) -> set[str]:
        """Chunk digests needed to reassemble the given blobs.

        Blobs without a local recipe are skipped — a repository restored
        from metadata-only persistence can reference outputs whose content
        was never archived here; those simply contribute nothing to a
        transfer.
        """
        chunks: set[str] = set()
        for blob in blob_digests:
            recipe = self._recipes.get(blob)
            if recipe is not None:
                chunks.update(recipe.chunk_digests)
        return chunks

    def import_chunk(self, digest: str, data: bytes) -> bool:
        """Verified chunk receive; see :meth:`ChunkStore.import_chunk`."""
        return self.chunks.import_chunk(digest, data)

    @property
    def stats(self):
        return self.chunks.stats

    def __len__(self) -> int:
        return len(self._recipes)
