"""A checkpoint crosses the storage layer with one copy each way.

``payload_to_bytes`` joins its parts once, each dense body a ``uint8``
view of its array. ``ObjectStore.get`` joins a blob's chunks into a
fresh ``bytearray`` in one pass over the store's ``_read``, booked once.
``payload_from_bytes`` walks a ``memoryview`` cursor over it and hands
out dense arrays that are writable views into that one buffer. Held
here: a save allocates one blob, a load one blob; a loaded array is
the caller's to change; a header is checked against the bytes left
before any array is made; the batched read keeps the books of the
per-chunk one.
"""

import struct

import numpy as np
import pytest

from repro.core.checkpoint import ChunkedCheckpointStore
from repro.data import Table, payload_from_bytes
from repro.data.serialize import MAGIC
from repro.errors import ChunkNotFoundError, StorageError
from repro.obs.metrics import MetricsRegistry
from repro.storage import FileChunkStore, MemoryChunkStore, ObjectStore

from helpers import toy_model, traced_peak

ROWS = 256 * 1024  # two 8-byte columns: a 4 MiB table


def big_table() -> Table:
    # Dense columns only: a string column decodes into str objects,
    # which cost what they cost whatever the buffer does.
    rng = np.random.default_rng(0)
    return Table({"x": rng.standard_normal(ROWS), "i": rng.integers(0, 99, ROWS)})


@pytest.fixture
def saved():
    """A store holding one checkpoint of a 4 MB table, its record, the
    table and the blob's size."""
    store = ChunkedCheckpointStore()
    table = big_table()
    record = store.save(toy_model(1, 0.5), "input-0", table, run_seconds=0.1)
    return store, record, table, record.output_bytes


def test_a_save_allocates_one_blob(saved):
    # The store holds these bytes already (another input gave the same
    # output), so what the save costs is what the encoder costs: a
    # ``tobytes`` per column would be a second blob.
    store, _, table, blob = saved
    record, peak = traced_peak(
        lambda: store.save(toy_model(1, 0.5), "input-1", table, run_seconds=0.1)
    )
    assert record.output_bytes == blob >= 4 * 2**20
    assert peak < 1.1 * blob, (peak, blob)


def test_a_load_allocates_one_blob(saved):
    # The joined blob, and nothing per array: a copy out of the buffer
    # (``frombuffer(...).copy()``) would be a second blob.
    store, record, table, blob = saved
    loaded, peak = traced_peak(lambda: store.load(record))
    assert loaded.equals(table)
    assert peak < 1.1 * blob, (peak, blob)


def test_a_file_backed_load_allocates_one_blob(saved, tmp_path):
    # ``FileChunkStore.join`` reads each chunk into its slice of one
    # buffer sized from the index: the chunks read one by one and then
    # joined would be a second blob.
    memory, record, table, blob = saved
    objects = ObjectStore(FileChunkStore(tmp_path / "chunks"))
    assert objects.put(bytes(memory.objects.get(record.output_ref))) == record.output_ref
    store = ChunkedCheckpointStore(objects)
    loaded, peak = traced_peak(lambda: store.load(record))
    assert loaded.equals(table)
    assert peak < 1.1 * blob, (peak, blob)


def test_writing_into_a_loaded_array_changes_neither_the_store_nor_a_second_load(saved):
    store, record, table, _ = saved
    first = store.load(record)
    column = first.column("x")
    assert column.flags.writeable and not column.flags.owndata
    column[:] = 0.0
    second = store.load(record)
    assert second.equals(table)
    assert not np.shares_memory(second.column("x"), column)
    assert payload_from_bytes(store.objects.get(record.output_ref)).equals(table)


@pytest.mark.parametrize("kind", ["dense", "strings"])
@pytest.mark.parametrize("wrap", [bytes, bytearray], ids=["bytes", "bytearray"])
def test_a_huge_declared_shape_is_a_storage_error_not_a_memory_error(kind, wrap):
    # The length prefix agrees with the header; the bytes are not there.
    dtype = "<f8" if kind == "dense" else "object"
    header = (
        f'{{"dtype": "{dtype}", "kind": "{kind}", "shape": [{2**40}]}}'.encode()
    )
    data = (
        MAGIC + b"A" + struct.pack(">Q", len(header)) + header
        + struct.pack(">Q", 8 * 2**40) + bytes(64)
    )
    with pytest.raises(StorageError, match=f"wanted {8 * 2**40} bytes, got 64"):
        payload_from_bytes(wrap(data))


def make_objects(kind, tmp_path, name):
    chunks = MemoryChunkStore() if kind == "memory" else FileChunkStore(tmp_path / name)
    registry = MetricsRegistry()
    chunks.stats.bind_registry(registry, tenant="t", repo="r")
    return ObjectStore(chunks), registry


def books(objects, registry) -> tuple:
    stats = objects.stats
    return (
        stats.reads,
        stats.read_bytes,
        registry.value("repro_chunk_read_bytes_total", tenant="t", repo="r"),
    )


@pytest.mark.parametrize("kind", ["memory", "file"])
class TestTheBatchedReadKeepsTheBooks:
    """``ObjectStore.get`` books what ``ChunkStore.get`` per chunk did."""

    def stores(self, kind, tmp_path):
        blob = np.random.default_rng(1).bytes(256 * 1024)
        pair = [make_objects(kind, tmp_path, name) for name in ("batched", "per-chunk")]
        digests = {objects.put(blob) for objects, _ in pair}
        assert len(digests) == 1
        return pair, digests.pop(), blob

    def test_a_read(self, kind, tmp_path):
        (batched, per_chunk), digest, blob = self.stores(kind, tmp_path)
        assert batched[0].get(digest) == blob
        recipe = per_chunk[0].recipe(digest)
        assert recipe.n_chunks > 10
        assert b"".join(per_chunk[0].chunks.get(c) for c in recipe.chunk_digests) == blob
        assert books(*batched) == books(*per_chunk) == (recipe.n_chunks, len(blob), len(blob))
        assert batched[0].stats.read_seconds > 0.0

    def test_a_miss_mid_blob(self, kind, tmp_path):
        (batched, per_chunk), digest, _ = self.stores(kind, tmp_path)
        chunk_digests = batched[0].recipe(digest).chunk_digests
        lost = chunk_digests[len(chunk_digests) // 2]
        for objects, _ in (batched, per_chunk):
            objects.chunks.discard(lost)
        with pytest.raises(ChunkNotFoundError):
            batched[0].get(digest)
        with pytest.raises(ChunkNotFoundError):
            for chunk in chunk_digests:
                per_chunk[0].chunks.get(chunk)
        before = chunk_digests[: len(chunk_digests) // 2]
        read = sum(len(per_chunk[0].chunks._read(c)) for c in before)
        assert books(*batched) == books(*per_chunk) == (len(before), read, read)
