"""Content-defined chunking for the ForkBase-like storage engine.

ForkBase (the storage engine MLCask deploys on) deduplicates at *chunk*
level: objects are split into variable-size chunks at positions chosen by
the data content itself, so a local edit only changes the chunks it touches
while the rest of the object keeps hashing to the same chunk ids. This is
what gives MLCask its storage advantage over the folder-archival baselines
in Fig. 7 of the paper.

We implement a buzhash-style rolling hash. For a window of ``w`` bytes
ending at position ``i`` the hash is::

    H(i) = rot^{w-1}(T[x_{i-w+1}]) XOR rot^{w-2}(T[x_{i-w+2}]) XOR ... XOR T[x_i]

where ``T`` maps a byte to a random 64-bit value and ``rot^d`` rotates left
by ``d`` (mod 64). Because the rotation amount only depends on the offset
within the window (not on ``i``), the whole hash sequence can be computed
with ``w`` vectorized XOR passes in numpy, which keeps chunking fast enough
to measure honestly in the storage-time experiments.

A position is a cut point when ``H(i) & mask == 0`` where ``mask`` has
``log2(target_size)`` low bits set; min/max chunk bounds are then enforced
with one linear pass over the (sparse) candidate cut list.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


_TABLE_SEED = 0x5EED_CA5C


def _byte_table(seed: int = _TABLE_SEED) -> np.ndarray:
    """Random 32-bit value per byte, fixed by seed so hashes are stable."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, size=256, dtype=np.uint32)


_TABLE = _byte_table()
_HASH_BITS = 32


def rolling_hashes(data: bytes, window: int) -> np.ndarray:
    """Return the buzhash value at every position of ``data``.

    Positions before a full window has accumulated hash the partial window;
    they are never eligible cut points in practice because of the minimum
    chunk size, but defining them keeps the function total.

    The computation is fully vectorized: one XOR pass per window byte,
    with preallocated scratch buffers (the function is memory-bandwidth
    bound, so avoiding temporaries matters more than instruction count).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == 0:
        return np.zeros(0, dtype=np.uint32)
    mapped = _TABLE[buf]
    out = mapped.copy()
    scratch = np.empty_like(mapped)
    for offset in range(1, window):
        amount = offset % _HASH_BITS
        source = mapped[:-offset]
        target_scratch = scratch[offset:]
        # rotate-left(source, amount) into scratch, then XOR into out
        np.left_shift(source, np.uint32(amount), out=target_scratch)
        np.bitwise_or(
            target_scratch,
            np.right_shift(source, np.uint32(_HASH_BITS - amount)),
            out=target_scratch,
        )
        np.bitwise_xor(out[offset:], target_scratch, out=out[offset:])
    return out


@dataclass(frozen=True)
class ChunkerConfig:
    """Parameters of the content-defined chunker.

    ``target_bits`` sets the expected chunk size to ``2**target_bits``
    bytes; ``min_size``/``max_size`` bound the actual sizes. Defaults are
    sized for the KB-to-MB intermediate outputs the workloads produce.

    ``boundary`` selects the cut-point detector:

    * ``"word"`` (default) — a multiply-mix hash over 8-byte words.
      Boundaries land on word-aligned offsets, so the chunking is
      shift-resistant at 8-byte granularity: same-length value edits and
      appended suffixes (the dominant diffs between versions of numpy
      payloads) dedup fully. ``split`` of a 3.7 MB stage output runs at
      about 3 GB/s alone on a core (500 MB/s before the kernel was
      cache-blocked and the pieces became views) and at 500-750 MB/s
      where it actually runs, inside a commit beside a reader thread that
      takes the interpreter lock at every numpy call (250 MB/s before) —
      the honest stand-in for ForkBase's C++ chunker.
    * ``"byte"`` — the classic buzhash rolling window with per-byte
      boundaries; resistant to arbitrary-length insertions but roughly an
      order of magnitude slower in numpy. Kept as the insertion-resistant
      comparison and for byte-oriented payloads.
    """

    target_bits: int = 12  # expected chunk size 4 KiB
    min_size: int = 1 << 10  # 1 KiB
    max_size: int = 1 << 14  # 16 KiB
    window: int = 16  # byte mode: bytes of context per boundary
    boundary: str = "word"

    def __post_init__(self) -> None:
        if not 4 <= self.target_bits <= 30:
            raise ValueError(f"target_bits out of range: {self.target_bits}")
        if self.min_size < self.window:
            raise ValueError("min_size must be at least the hash window")
        if self.max_size < self.min_size:
            raise ValueError("max_size must be >= min_size")
        if self.boundary not in ("word", "byte"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @property
    def mask(self) -> int:
        return (1 << self.target_bits) - 1

    @property
    def word_mask(self) -> int:
        """Mask for word-mode candidates: boundaries are tested once per
        8 bytes, so 3 fewer mask bits keep the expected chunk size at
        ``2**target_bits`` bytes."""
        return (1 << max(self.target_bits - 3, 1)) - 1


_MIX_PRIME = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio
_MIX_SHIFT = np.uint64(29)

#: Words hashed per pass of :func:`word_boundary_candidates`. Two uint64
#: scratch arrays of this many words (2 x 256 KiB) stay cache-resident, so
#: the source bytes are the only memory the kernel streams.
_BLOCK_WORDS = 1 << 15


def word_boundary_candidates(data: bytes, mask: int) -> np.ndarray:
    """Cut-point candidates (byte offsets, exclusive) from the word hash.

    Each aligned 8-byte word is hashed with a multiply-xorshift-multiply
    mix (``h = w * P; h ^= h >> 29; h *= P``); a word whose hash clears
    ``mask`` marks a candidate boundary *after* that word. Purely
    content-defined: identical words at identical alignment always vote
    the same way.

    The blob is hashed a block of ``_BLOCK_WORDS`` words at a time into
    two scratch arrays with ``out=`` ufuncs. One pass over the whole blob
    per step would allocate blob-sized temporaries — each a fresh ``mmap``
    whose pages fault in on first touch — and cost several times the
    arithmetic. The scratch is allocated per call, never shared:
    concurrent DAG stages may chunk at once.
    """
    usable = len(data) - (len(data) % 8)
    if usable == 0:
        return np.zeros(0, dtype=np.int64)
    words = np.frombuffer(data, dtype="<u8", count=usable // 8)
    size = min(words.size, _BLOCK_WORDS)
    mixed = np.empty(size, dtype=np.uint64)
    shifted = np.empty(size, dtype=np.uint64)
    word_mask = np.uint64(mask)
    found = []
    for start in range(0, words.size, _BLOCK_WORDS):
        block = words[start : start + _BLOCK_WORDS]
        mix = mixed[: block.size]
        shift = shifted[: block.size]
        np.multiply(block, _MIX_PRIME, out=mix)
        np.right_shift(mix, _MIX_SHIFT, out=shift)
        np.bitwise_xor(mix, shift, out=mix)
        # The closing ``h *= P`` is not computed: P is odd, so modulo any
        # power of two the multiply is a bijection that fixes zero, and
        # the low bits of ``h * P`` are zero exactly when those of ``h``
        # are. Same candidates, one pass over the block fewer.
        np.bitwise_and(mix, word_mask, out=mix)
        hits = np.flatnonzero(mix == 0)
        hits += start + 1  # index of the word *after* the hit, blob-wide
        found.append(hits)
    candidates = np.concatenate(found)
    candidates *= 8
    return candidates


class ContentDefinedChunker:
    """Split byte strings into content-defined chunks.

    The split is a pure function of the bytes (plus the fixed config), so
    identical regions of two objects produce identical chunks — the property
    the dedup accounting relies on.
    """

    def __init__(self, config: ChunkerConfig | None = None):
        self.config = config or ChunkerConfig()

    def cut_points(self, data: bytes) -> list[int]:
        """Return the end offsets (exclusive) of every chunk in ``data``."""
        cfg = self.config
        n = len(data)
        if n == 0:
            return []
        if n <= cfg.min_size * 2:
            # Too small to ever produce more than one cut worth keeping;
            # skip the boundary hash entirely.
            return [n]
        if cfg.boundary == "word":
            candidates = word_boundary_candidates(data, cfg.word_mask)
        else:
            hashes = rolling_hashes(data, cfg.window)
            candidate_mask = (hashes & np.uint32(cfg.mask)) == 0
            candidates = np.flatnonzero(candidate_mask) + 1  # cut AFTER position i
        # Plain ints from here on: indexing a numpy array hands back a
        # numpy scalar per access, which costs more than the comparison.
        offsets = candidates.tolist()
        n_offsets = len(offsets)
        min_size, max_size = cfg.min_size, cfg.max_size
        cuts: list[int] = []
        start = 0
        idx = 0
        while start < n:
            hi = min(start + max_size, n)
            cut = hi
            idx = bisect_left(offsets, start + min_size, idx)
            if idx < n_offsets and offsets[idx] <= hi:
                cut = offsets[idx]
                idx += 1
            cuts.append(cut)
            start = cut
        return cuts

    def split(self, data: bytes) -> list[memoryview]:
        """Split ``data`` into chunks; concatenation round-trips exactly.

        The chunks are zero-copy ``memoryview`` slices of ``data``: most
        pieces of a new version are already stored, and finding that out
        takes their hash, not a copy. A view of ``bytes`` compares and
        hashes by content, like the ``bytes`` it covers; whoever keeps a
        piece past the life of ``data`` copies it (``bytes(piece)``), as
        the chunk store does for the pieces it lacks.
        """
        view = memoryview(data)
        chunks = []
        start = 0
        for end in self.cut_points(data):
            chunks.append(view[start:end])
            start = end
        return chunks


class FixedSizeChunker:
    """Naive fixed-size chunker, kept as the baseline.

    A single inserted byte shifts every later chunk boundary, destroying
    dedup for the remainder of the object;
    ``tests/storage/test_chunking.py::test_bytes_each_edit_shares_with_the_original``
    holds this against the content-defined chunker.
    """

    def __init__(self, size: int = 4096):
        if size < 1:
            raise ValueError(f"chunk size must be positive, got {size}")
        self.size = size

    def cut_points(self, data: bytes) -> list[int]:
        n = len(data)
        if n == 0:
            return []
        cuts = list(range(self.size, n, self.size))
        cuts.append(n)
        return cuts

    def split(self, data: bytes) -> list[bytes]:
        return [data[i : i + self.size] for i in range(0, len(data), self.size)]
