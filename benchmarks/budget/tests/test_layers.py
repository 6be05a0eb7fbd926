import layers


def span(span_id, parent, layer, name, start, end, thread=1, work=0):
    return (span_id, parent, layer, name, thread, start, end, work)


#   op [0, 10]
#     ├─ commit-ish child A [1, 4]
#     │    └─ grandchild [2, 3]
#     └─ child B [5, 9]
#   orphan on another thread [2, 8]  (a parallel worker: no parent)
TREE = [
    span(1, 0, "ops", "Remote.push", 0.0, 10.0),
    span(2, 1, "pack", "pack_meta", 1.0, 4.0),
    span(3, 2, "hashing", "sha256_hex", 2.0, 3.0, work=7),
    span(4, 1, "transport", "Transport.call", 5.0, 9.0),
    span(5, 0, "executor", "ParallelExecutor.run", 2.0, 8.0, thread=2),
]


def test_self_time_is_duration_minus_direct_children():
    own = layers.self_times(TREE)
    assert own == {1: 10.0 - 3.0 - 4.0, 2: 3.0 - 1.0, 3: 1.0, 4: 4.0, 5: 6.0}


def test_self_times_of_a_tree_add_up_to_its_root():
    own = layers.self_times(TREE)
    assert sum(own[i] for i in (1, 2, 3, 4)) == 10.0


def test_summary_rows_roots_and_work():
    summary = layers.summarize(TREE)
    assert summary["root_s"] == 10.0  # the orphan is not in a root layer
    assert summary["rows"]["hashing/sha256_hex"] == {
        "calls": 1, "total_s": 1.0, "self_s": 1.0, "work": 7,
    }
    assert layers.layer_self(summary, "ops") == 3.0
    assert layers.layer_self(summary, "pack", "pack_meta") == 2.0
    assert layers.layer_self(summary, "pack", "import_content") == 0.0
    assert layers.row(summary, "executor", "ParallelExecutor.run")["total_s"] == 6.0


def test_window_drops_spans_outside_it():
    summary = layers.summarize(TREE, window=(0.5, 9.5))
    assert "ops/Remote.push" not in summary["rows"]
    # its children survive; none of them is a root-layer span
    assert summary["rows"]["transport/Transport.call"]["self_s"] == 4.0
    assert summary["root_s"] == 0.0


def test_every_table_entry_resolves_to_a_function():
    for targets in layers.LAYERS.values():
        for target, _ in targets:
            _, _, function = layers._resolve(target)
            assert callable(function), target


def test_wrappers_record_spans_and_restore_the_originals():
    import repro.remote.client
    import repro.remote.protocol
    import repro.storage.chunk_store
    from repro.storage.chunk_store import ChunkStore, MemoryChunkStore

    put_before = ChunkStore.__dict__["put"]
    encode_before = repro.remote.protocol.encode_message
    assert repro.remote.client.encode_message is encode_before
    hash_before = repro.storage.chunk_store.sha256_hex

    with layers.Tracer() as tracer:
        assert ChunkStore.__dict__["put"] is not put_before
        # imported-by-name references are rebound too
        assert repro.remote.client.encode_message is not encode_before
        assert repro.storage.chunk_store.sha256_hex is not hash_before
        MemoryChunkStore().put(b"x" * 100)

    assert ChunkStore.__dict__["put"] is put_before
    assert repro.remote.protocol.encode_message is encode_before
    assert repro.remote.client.encode_message is encode_before
    assert repro.storage.chunk_store.sha256_hex is hash_before

    rows = tracer.summary()["rows"]
    assert rows["chunk_store/ChunkStore.put"]["calls"] == 1
    assert rows["chunk_store/ChunkStore.put"]["work"] == 100
    assert rows["hashing/sha256_hex"]["calls"] == 1
    put, = [s for s in tracer.spans if s[3] == "ChunkStore.put"]
    sha, = [s for s in tracer.spans if s[3] == "sha256_hex"]
    assert sha[1] == put[0]  # the hash was caused by the put

    spans_before = len(tracer.spans)
    MemoryChunkStore().put(b"y")
    assert len(tracer.spans) == spans_before  # nothing is recorded after exit


def test_an_exception_still_closes_its_span():
    from repro.storage.chunk_store import MemoryChunkStore
    from repro.errors import ChunkNotFoundError

    with layers.Tracer() as tracer:
        try:
            MemoryChunkStore().get("0" * 64)
        except ChunkNotFoundError:
            pass
        MemoryChunkStore().put(b"z")
    names = [s[3] for s in tracer.spans]
    assert names.count("ChunkStore.get") == 1
    put, = [s for s in tracer.spans if s[3] == "ChunkStore.put"]
    assert put[1] == 0  # the failed get did not stay on the stack
