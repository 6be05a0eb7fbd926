"""Content-defined chunking tests, including hypothesis invariants."""

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.storage import chunking
from repro.storage.chunking import (
    ChunkerConfig,
    ContentDefinedChunker,
    FixedSizeChunker,
    rolling_hashes,
    word_boundary_candidates,
)
from repro.storage.hashing import sha256_hex


def random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


class TestRollingHashes:
    def test_empty_input(self):
        assert rolling_hashes(b"", 16).size == 0

    def test_length_matches_input(self):
        data = random_bytes(1000)
        assert rolling_hashes(data, 16).shape == (1000,)

    def test_deterministic(self):
        data = random_bytes(500)
        assert np.array_equal(rolling_hashes(data, 16), rolling_hashes(data, 16))

    def test_window_locality(self):
        """Hash at position i depends only on the last `window` bytes."""
        w = 16
        a = random_bytes(400, seed=1)
        b = random_bytes(400, seed=2)
        combined_a = a + b
        combined_c = random_bytes(400, seed=3) + b
        ha = rolling_hashes(combined_a, w)
        hc = rolling_hashes(combined_c, w)
        # positions >= 400 + w only see bytes of b
        assert np.array_equal(ha[400 + w :], hc[400 + w :])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            rolling_hashes(b"abc", 0)


class TestChunkerConfig:
    def test_rejects_min_below_window(self):
        with pytest.raises(ValueError):
            ChunkerConfig(min_size=4, window=16)

    def test_rejects_max_below_min(self):
        with pytest.raises(ValueError):
            ChunkerConfig(min_size=2048, max_size=1024)

    def test_rejects_extreme_target(self):
        with pytest.raises(ValueError):
            ChunkerConfig(target_bits=0)

    def test_mask_has_target_bits(self):
        assert ChunkerConfig(target_bits=12).mask == 0xFFF


class TestContentDefinedChunker:
    def test_empty(self):
        assert ContentDefinedChunker().split(b"") == []

    def test_roundtrip(self):
        data = random_bytes(100_000)
        chunks = ContentDefinedChunker().split(data)
        assert b"".join(chunks) == data

    def test_small_blob_single_chunk(self):
        ck = ContentDefinedChunker()
        data = random_bytes(ck.config.min_size)
        assert ck.split(data) == [data]

    def test_chunk_size_bounds(self):
        ck = ContentDefinedChunker()
        data = random_bytes(300_000)
        chunks = ck.split(data)
        for chunk in chunks[:-1]:
            assert ck.config.min_size <= len(chunk) <= ck.config.max_size
        assert len(chunks[-1]) <= ck.config.max_size

    def test_edit_locality_same_length(self):
        """A same-length point edit must leave most chunks identical (the
        dedup property Fig. 7 relies on; numpy payload diffs are almost
        always value edits, which preserve length)."""
        ck = ContentDefinedChunker()
        data = random_bytes(200_000)
        edited = data[:100_000] + b"EDIT" + data[100_004:]
        original = set(ck.split(data))
        new = ck.split(edited)
        shared = sum(len(c) for c in new if c in original)
        assert shared > 0.9 * len(data)

    def test_append_locality(self):
        """Appending bytes leaves every prefix chunk identical."""
        ck = ContentDefinedChunker()
        data = random_bytes(150_000)
        extended = data + random_bytes(10_000, seed=42)
        original = set(ck.split(data))
        new = ck.split(extended)
        shared = sum(len(c) for c in new if c in original)
        assert shared > 0.9 * len(data)

    def test_insert_locality_byte_mode(self):
        """Byte-granularity buzhash mode survives arbitrary-length
        insertions (the general CDC property; word mode trades this for
        an order of magnitude more throughput)."""
        ck = ContentDefinedChunker(ChunkerConfig(boundary="byte"))
        data = random_bytes(200_000)
        edited = data[:100_000] + b"EDIT" + data[100_000:]
        original = set(ck.split(data))
        new = ck.split(edited)
        shared = sum(len(c) for c in new if c in original)
        assert shared > 0.9 * len(data)

    def test_unknown_boundary_mode(self):
        with pytest.raises(ValueError):
            ChunkerConfig(boundary="magic")

    def test_deterministic_cuts(self):
        ck = ContentDefinedChunker()
        data = random_bytes(50_000)
        assert ck.cut_points(data) == ck.cut_points(data)

    def test_cut_points_cover_input(self):
        ck = ContentDefinedChunker()
        data = random_bytes(64_000, seed=9)
        cuts = ck.cut_points(data)
        assert cuts[-1] == len(data)
        assert all(b > a for a, b in zip(cuts, cuts[1:]))


class TestFixedSizeChunker:
    def test_roundtrip(self):
        data = random_bytes(10_000)
        assert b"".join(FixedSizeChunker(4096).split(data)) == data

    def test_exact_sizes(self):
        chunks = FixedSizeChunker(100).split(random_bytes(350))
        assert [len(c) for c in chunks] == [100, 100, 100, 50]

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            FixedSizeChunker(0)

    def test_insertion_destroys_alignment(self):
        """Fixed-size chunking shares almost nothing after an insertion —
        the weakness the content-defined chunker fixes (ablation bench)."""
        ck = FixedSizeChunker(1024)
        data = random_bytes(100_000)
        edited = b"X" + data
        shared = set(ck.split(data)) & set(ck.split(edited))
        shared_bytes = sum(len(c) for c in shared)
        assert shared_bytes < 0.1 * len(data)


@settings(max_examples=25)
@given(st.binary(min_size=0, max_size=50_000))
def test_roundtrip_property(data):
    ck = ContentDefinedChunker()
    assert b"".join(ck.split(data)) == data


@settings(max_examples=25)
@given(st.binary(min_size=3000, max_size=30_000), st.integers(0, 2999))
def test_common_suffix_shares_chunks(data, split_at):
    """Two blobs sharing a long suffix share their tail chunks."""
    ck = ContentDefinedChunker()
    variant = bytes(reversed(data[:split_at])) + data[split_at:]
    chunks_a = ck.split(data)
    chunks_b = ck.split(variant)
    # The final chunk is only guaranteed shared when the suffix is long
    # enough to contain a whole chunk; just assert determinism + roundtrip.
    assert b"".join(chunks_b) == variant
    assert chunks_a == ck.split(data)


# ------------------------------------------------------------ references
# The one-shot kernel and the numpy-indexing cut loop as they stood before
# the kernel was cache-blocked. They are the specification: the blocked
# kernel and the list-walking loop must reproduce them offset for offset,
# or every stored recipe stops deduplicating against new versions.

_PRIME = np.uint64(0x9E3779B97F4A7C15)


def reference_candidates(data: bytes, mask: int) -> np.ndarray:
    usable = len(data) - (len(data) % 8)
    if usable == 0:
        return np.zeros(0, dtype=np.int64)
    words = np.frombuffer(data, dtype="<u8", count=usable // 8)
    mixed = words * _PRIME
    mixed = np.bitwise_xor(mixed, np.right_shift(mixed, np.uint64(29)))
    mixed = mixed * _PRIME
    hits = np.flatnonzero((mixed & np.uint64(mask)) == 0)
    return (hits + 1) * 8


def reference_cut_points(config: ChunkerConfig, data: bytes) -> list[int]:
    n = len(data)
    if n == 0:
        return []
    if n <= config.min_size * 2:
        return [n]
    if config.boundary == "word":
        candidates = reference_candidates(data, config.word_mask)
    else:
        hashes = rolling_hashes(data, config.window)
        candidates = np.flatnonzero((hashes & np.uint32(config.mask)) == 0) + 1
    cuts: list[int] = []
    start = 0
    idx = 0
    while start < n:
        lo = start + config.min_size
        hi = min(start + config.max_size, n)
        cut = hi
        while idx < candidates.size and candidates[idx] < lo:
            idx += 1
        if idx < candidates.size and candidates[idx] <= hi:
            cut = int(candidates[idx])
            idx += 1
        cuts.append(cut)
        start = cut
    return cuts


@contextlib.contextmanager
def small_blocks():
    """Shrink the kernel's block to 64 words (512 bytes) so inputs of a
    few KB span several blocks and every block-edge case is cheap to
    reach. A context manager, not a fixture: hypothesis runs many inputs
    inside one test call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chunking, "_BLOCK_WORDS", 64)
        yield


_BLOCK_BYTES = chunking._BLOCK_WORDS * 8
#: Lengths around the real block size: one word short of a block, exactly
#: one, one word over, several blocks, and none of them a multiple of 8
#: when offset by the tails below.
_EDGE_LENGTHS = [
    0, 7, 8, 9, 4096,
    _BLOCK_BYTES - 8, _BLOCK_BYTES, _BLOCK_BYTES + 8,
    3 * _BLOCK_BYTES, 3 * _BLOCK_BYTES + 8,
]  # fmt: skip


class TestBlockedKernel:
    @pytest.mark.parametrize("length", _EDGE_LENGTHS)
    @pytest.mark.parametrize("tail", [0, 3])
    @pytest.mark.parametrize("mask", [0x1, 0x1FF])
    def test_equals_the_one_shot_kernel_around_the_real_block_size(self, length, tail, mask):
        data = random_bytes(length + tail, seed=length % 97)
        assert np.array_equal(
            word_boundary_candidates(data, mask), reference_candidates(data, mask)
        )

    @pytest.mark.parametrize("length", [0, 7, 8, 64, _BLOCK_BYTES + 8, 2 * _BLOCK_BYTES + 5])
    def test_all_zero_data_makes_every_word_a_candidate(self, length):
        data = bytes(length)
        candidates = word_boundary_candidates(data, 0x1FF)
        assert candidates.tolist() == list(range(8, length - length % 8 + 1, 8))
        assert np.array_equal(candidates, reference_candidates(data, 0x1FF))

    def test_result_is_int64_offsets_like_the_reference(self):
        data = random_bytes(3 * _BLOCK_BYTES)
        got, want = word_boundary_candidates(data, 0xF), reference_candidates(data, 0xF)
        assert got.dtype == want.dtype == np.int64

    def test_accepts_any_byte_buffer(self):
        data = random_bytes(40_000)
        want = reference_candidates(data, 0x3F)
        for buffer in (bytearray(data), memoryview(data), memoryview(b"x" + data)[1:]):
            assert np.array_equal(word_boundary_candidates(buffer, 0x3F), want)

    def test_scratch_is_per_call_so_threads_may_chunk_at_once(self):
        """Merge workers chunk concurrently; a shared scratch buffer
        would let one call's hashes overwrite another's mid-block."""
        import sys
        import threading

        blobs = [random_bytes(2 * _BLOCK_BYTES + 8 * i, seed=i) for i in range(4)]
        want = [reference_cut_points(ChunkerConfig(), blob) for blob in blobs]
        chunker = ContentDefinedChunker()
        wrong: list[int] = []

        def work(i: int) -> None:
            for _ in range(20):
                if chunker.cut_points(blobs[i]) != want[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


# Lengths in units of the shrunken block: inside one, on the edge, one
# word either side of it, several blocks — each with a ragged tail.
_block_lengths = st.builds(
    lambda blocks, words, tail: blocks * 512 + words * 8 + tail,
    st.integers(0, 5),
    st.sampled_from([-1, 0, 1, 17]),
    st.integers(0, 7),
).filter(lambda n: n >= 0)


@settings(max_examples=60, deadline=None)
@given(
    length=_block_lengths,
    seed=st.integers(0, 2**16),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    mask=st.sampled_from([0x0, 0x1, 0x7, 0x1FF]),
)
@example(length=0, seed=0, zero_share=0.0, mask=0x1FF)
@example(length=7, seed=0, zero_share=0.0, mask=0x1FF)
@example(length=8, seed=0, zero_share=1.0, mask=0x1FF)
@example(length=511, seed=1, zero_share=0.0, mask=0x1)
@example(length=512, seed=1, zero_share=0.0, mask=0x1)
@example(length=520, seed=1, zero_share=1.0, mask=0x1)
def test_blocked_kernel_equals_one_shot_property(length, seed, zero_share, mask):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, length, dtype=np.uint8)
    raw[rng.random(length) < zero_share] = 0
    data = raw.tobytes()
    with small_blocks():
        candidates = word_boundary_candidates(data, mask)
    assert np.array_equal(candidates, reference_candidates(data, mask))


_configs = st.sampled_from(
    [
        ChunkerConfig(),
        ChunkerConfig(target_bits=6, min_size=32, max_size=256),  # many cuts per KB
        ChunkerConfig(target_bits=8, min_size=64, max_size=512, boundary="byte"),
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    config=_configs,
    length=st.integers(0, 6000),
    seed=st.integers(0, 2**16),
    zero_share=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_cut_points_and_split_equal_the_reference_property(config, length, seed, zero_share):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, length, dtype=np.uint8)
    raw[rng.random(length) < zero_share] = 0  # zero runs: clamp to min_size
    data = raw.tobytes()
    chunker = ContentDefinedChunker(config)
    with small_blocks():
        cuts = chunker.cut_points(data)
    assert cuts == reference_cut_points(config, data)
    assert all(type(cut) is int for cut in cuts)
    pieces = chunker.split(data)
    assert [len(piece) for piece in pieces] == [b - a for a, b in zip([0] + cuts, cuts)]
    assert b"".join(pieces) == data


def golden_blob() -> bytes:
    """4 MiB fixed by a SHAKE-256 stream (no library RNG in the way), with
    a 64 KiB run of zeros (every word a candidate: cuts clamp to
    ``min_size``) and a 64 KiB constant run (no candidate: cuts fall at
    ``max_size``)."""
    blob = bytearray(hashlib.shake_256(b"mlcask golden recipe, seed 1509").digest(4 << 20))
    blob[1 << 20 : (1 << 20) + (64 << 10)] = bytes(64 << 10)
    blob[2 << 20 : (2 << 20) + (64 << 10)] = b"\x5a" * (64 << 10)
    return bytes(blob)


def recipe_fingerprint(pieces) -> tuple[int, str]:
    return len(pieces), sha256_hex("".join(sha256_hex(p) for p in pieces).encode())


class TestGoldenRecipes:
    """Chunk count and a digest over the chunk digests, computed on commit
    525df5e (before the kernel was blocked). A boundary that moves by one
    word changes the digest: every recipe stored by an earlier version
    would silently stop deduplicating against new data."""

    def test_word_cdc_default(self):
        pieces = ContentDefinedChunker().split(golden_blob())
        assert recipe_fingerprint(pieces) == (
            879,
            "9739bfe1ad9c3caf84c7fd35c11346916ffaf827b4faf2fd1c1a051a5bbe1a93",
        )
        sizes = [len(piece) for piece in pieces]
        assert sizes.count(1024) == 65 and sizes.count(16384) == 25  # both clamps hit

    def test_byte_cdc(self):
        chunker = ContentDefinedChunker(ChunkerConfig(boundary="byte"))
        assert recipe_fingerprint(chunker.split(golden_blob()[: 256 << 10])) == (
            54,
            "817962327bef706586781e922eb5975daaf65b9a1bac523856635323d4c6e2cf",
        )

    def test_fixed_size(self):
        assert recipe_fingerprint(FixedSizeChunker(4096).split(golden_blob())) == (
            1024,
            "b19050953541fdc057b291f76e6c57de944b25b7a0124f5e34c0015f2da4a4fd",
        )


def edit_scripts():
    """1 MB of random bytes and its three edits: 64 bytes zeroed in the
    middle (same length), 50 KB appended, and 5 bytes inserted in the
    middle (not a multiple of the word, so word alignment breaks)."""
    rng = np.random.default_rng(0)
    base = rng.integers(0, 256, 1_000_000, dtype=np.uint8).tobytes()
    value_edit = base[:500_000] + bytes(64) + base[500_064:]
    append = base + rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
    insert = base[:500_000] + b"WEDGE" + base[500_000:]
    return base, (value_edit, append, insert)


@pytest.mark.parametrize(
    "chunker, shared",
    [
        # the default keeps value edits and appends, and trades
        # arbitrary insertions for its throughput
        (ContentDefinedChunker(), (995_952, 990_048, 499_288)),
        (ContentDefinedChunker(ChunkerConfig(boundary="byte")), (997_273, 998_467, 997_273)),
        (FixedSizeChunker(4096), (995_904, 999_424, 499_712)),
    ],
    ids=["word", "byte", "fixed"],
)
def test_bytes_each_edit_shares_with_the_original(chunker, shared):
    """Exact, not bounded: a boundary rule that moves changes what every
    stored recipe dedups against."""
    base, edits = edit_scripts()
    held = set(chunker.split(base))
    assert tuple(
        sum(len(piece) for piece in chunker.split(edited) if piece in held)
        for edited in edits
    ) == shared


class TestSplitHandsOutViews:
    def test_pieces_are_views_of_the_blob_not_copies(self):
        data = random_bytes(100_000)
        pieces = ContentDefinedChunker().split(data)
        assert len(pieces) > 1
        assert all(type(piece) is memoryview and piece.obj is data for piece in pieces)

    def test_views_of_bytes_hash_and_compare_by_content(self):
        """What the dedup-fraction helpers rely on: ``set(split(x))``."""
        data = random_bytes(60_000)
        pieces = ContentDefinedChunker().split(data)
        copies = [bytes(piece) for piece in pieces]
        assert pieces == copies
        assert set(pieces) == set(copies)
        assert all(copy in set(pieces) for copy in copies)
