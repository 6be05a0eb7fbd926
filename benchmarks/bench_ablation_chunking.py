"""Ablation: chunking strategy (word-hash CDC vs byte buzhash vs fixed).

Quantifies the design choice called out in DESIGN.md: how much dedup each
strategy retains under the three edit patterns our payloads exhibit
(same-length value edits, appends, arbitrary insertions), and what each
costs in throughput.
"""

import statistics
import time

import numpy as np
from conftest import write_bench_record, write_result

from repro.experiments.report import format_table
from repro.storage import ChunkerConfig, ContentDefinedChunker, FixedSizeChunker


def _dedup_fraction(chunker, base: bytes, edited: bytes) -> float:
    original = set(chunker.split(base))
    shared = sum(len(c) for c in chunker.split(edited) if c in original)
    return shared / len(base)


def _throughput(chunker, data: bytes, rounds: int = 5) -> float:
    """MB/s of ``split`` on ``data``: median of ``rounds`` after a warm-up
    (one cold shot mostly times the allocator's first page faults)."""
    chunker.split(data)
    seconds = []
    for _ in range(rounds):
        start = time.perf_counter()
        chunker.split(data)
        seconds.append(time.perf_counter() - start)
    return len(data) / statistics.median(seconds) / 1e6


def test_ablation_chunking(benchmark):
    rng = np.random.default_rng(0)
    base = rng.integers(0, 256, 1_000_000, dtype=np.uint8).tobytes()
    value_edit = bytearray(base)
    value_edit[500_000:500_064] = bytes(64)
    value_edit = bytes(value_edit)
    append = base + rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
    # 5 bytes: NOT a multiple of the word size, so word-mode alignment
    # breaks downstream of the insertion point (an 8-byte-aligned insert
    # would dedup fine even in word mode).
    insertion = base[:500_000] + b"WEDGE" + base[500_000:]
    # Throughput is timed where the kernel runs: on a blob the size of a
    # stage output (4 MB), not on the 1 MB the dedup fractions use.
    blob = rng.integers(0, 256, 4_000_000, dtype=np.uint8).tobytes()

    chunkers = {
        "word CDC (default)": ContentDefinedChunker(ChunkerConfig(boundary="word")),
        "byte CDC (buzhash)": ContentDefinedChunker(ChunkerConfig(boundary="byte")),
        "fixed 4KiB": FixedSizeChunker(4096),
    }

    word_chunker = chunkers["word CDC (default)"]
    benchmark.pedantic(lambda: word_chunker.split(base), rounds=5, iterations=1)

    throughput = {name: _throughput(chunker, blob) for name, chunker in chunkers.items()}
    rows = []
    for name, chunker in chunkers.items():
        rows.append([
            name,
            f"{_dedup_fraction(chunker, base, value_edit):.2f}",
            f"{_dedup_fraction(chunker, base, append):.2f}",
            f"{_dedup_fraction(chunker, base, insertion):.2f}",
            f"{throughput[name]:.0f}",
        ])
    text = format_table(
        ["strategy", "value-edit dedup", "append dedup", "insert dedup", "MB/s"],
        rows,
        title="Ablation: chunking strategy (fraction of base bytes shared)",
    )
    write_result("ablation_chunking.txt", text)
    write_bench_record(
        "ablation_chunking",
        {
            name: {
                "value_edit_dedup": _dedup_fraction(chunker, base, value_edit),
                "append_dedup": _dedup_fraction(chunker, base, append),
                "insert_dedup": _dedup_fraction(chunker, base, insertion),
                "mb_per_s": throughput[name],
            }
            for name, chunker in chunkers.items()
        },
    )

    word = chunkers["word CDC (default)"]
    byte = chunkers["byte CDC (buzhash)"]
    fixed = chunkers["fixed 4KiB"]
    # word CDC keeps value-edit and append dedup like byte CDC...
    assert _dedup_fraction(word, base, value_edit) > 0.9
    assert _dedup_fraction(word, base, append) > 0.9
    # ...but only byte CDC survives arbitrary-length insertions...
    assert _dedup_fraction(byte, base, insertion) > 0.9
    assert _dedup_fraction(word, base, insertion) < 0.9
    # ...and fixed-size chunking loses insertions entirely.
    assert _dedup_fraction(fixed, base, insertion) < 0.6
    # word CDC must be substantially faster than byte CDC.
    assert throughput["word CDC (default)"] > 3 * throughput["byte CDC (buzhash)"]
