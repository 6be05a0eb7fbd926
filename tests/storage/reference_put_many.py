"""Frozen reference: ``ChunkStore.put_many`` as it stood at ``230189b``,
when it SHA-256'd every piece of every blob.

Production now finds the pieces a store already holds through an index
(length, first and last 16 bytes -> digest) and a byte comparison, and
hashes only the rest, so it can no longer vouch for itself. This copy is
the oracle ``test_put_many_reference.py`` compares it against: same
digests, same stored bytes, same books. It is the method verbatim, moved
to module level (call it as ``reference_put_many(store, pieces)``); do
not tidy it.

Import as ``from storage.reference_put_many import reference_put_many``
(``tests/`` is on ``sys.path``, see ``conftest.py``).
"""

from __future__ import annotations

from collections.abc import Iterable
from time import perf_counter

from repro.storage.hashing import sha256_hex


def reference_put_many(self, pieces: Iterable[bytes | bytearray | memoryview]) -> list[str]:
    """Store the pieces of one blob; return their digests in order.

    Runs once per blob, on what the chunker hands out: zero-copy
    views. A piece is hashed as it stands, and only one the store
    lacks is copied (``bytes(piece)``: a content address never
    aliases memory the caller can still change, and a stored view
    would pin its whole parent blob); a dedup hit costs its hash and
    one membership test. The batch is one clock window — hashing
    stays outside it, as for a single put — and one accounting step,
    which also books what landed before a ``_write`` that raises:
    the piece that failed counts as asked for, not as stored.
    """
    pieces = list(pieces)  # walked twice: hashed, then stored
    digests = [sha256_hex(piece) for piece in pieces]
    contains, write = self._contains, self._write
    logical = written = hits = novel = asked = 0
    start = perf_counter()
    try:
        for digest, piece in zip(digests, pieces):
            size = len(piece)
            logical += size
            asked += 1
            if contains(digest):
                hits += size
            else:
                write(digest, bytes(piece))
                written += size
                novel += 1
    finally:
        self.revision += novel
        self.stats.record_put(asked, logical, written, hits, perf_counter() - start)
    return digests
