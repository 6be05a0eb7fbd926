"""Every metric the benchmark reports: name, unit, direction, definition.

``END_TO_END`` are measured untraced and carry a regression bound; they
are the ones every workload produces, because the driver asks every
workload for every end-to-end metric. ``PER_LAYER`` are printed by the
traced pass (``--trace 1``): first the per-operation figures that only
some workloads have — measured on that pass's *untraced* reference run —
then the layer table built from spans, ``GET /metrics`` deltas and
``/proc``. A figure a workload does not produce reads 0 there.

``BENCHMARK.json`` at the repository root lists exactly these names; a
test holds the two together (``PYTHONPATH=src python3 metrics.py`` prints the
file).
"""

from __future__ import annotations

from layers import layer_self as _self, row
from stats import median, tail

# (name, unit, better, bound, definition)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "hub start, tenant and repository seeding, replica and registry construction and "
     "one warm-up op of every type: everything before the first timed op (median of "
     "three set-ups per run)"),
    ("step_p50_ms", "ms", "lower", 0.25,
     "median wall time of the workload's repeating step: one 7-op cycle (collab_cycle), "
     "one block of 10 reads (read_storm), one writer commit+push (ingest_beside_reads), "
     "one evolve-and-merge round over the four apps (local_evolve_merge)"),
    ("cpu_ms_per_step", "ms", "lower", 0.25,
     "CPU time of the driver plus the hub process over the timed section, per step"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "VmHWM of the process doing the work: the hub subprocess, or the driver for "
     "local_evolve_merge"),
    ("stored_bytes_per_logical_byte", "ratio", "lower", 0.10,
     "bytes kept on disk under the hub root (chunks + repository metadata; the object "
     "store's physical bytes for local_evolve_merge) per byte the clients committed"),
]

# (name, unit, better, the end-to-end or per-op figure it should move)
PER_OP = [
    ("cycle_p50_ms", "ms", "lower", "step_p50_ms on collab_cycle"),
    ("commit_p50_ms", "ms", "lower", "step_p50_ms on collab_cycle, ingest_beside_reads"),
    ("push_p50_ms", "ms", "lower", "step_p50_ms on collab_cycle, ingest_beside_reads"),
    ("fetch_p50_ms", "ms", "lower", "step_p50_ms on read_storm"),
    ("clone_p50_ms", "ms", "lower", "step_p50_ms on read_storm"),
    ("poll_p50_ms", "ms", "lower", "step_p50_ms on read_storm"),
    ("reads_per_s", "ops/s", "higher", "step_p50_ms on read_storm"),
    ("ingest_mb_per_s", "MB/s", "higher", "step_p50_ms on ingest_beside_reads"),
    ("linear_s", "s", "lower", "step_p50_ms on local_evolve_merge"),
    ("merge_s", "s", "lower", "step_p50_ms on local_evolve_merge"),
    ("merge_parallel_s", "s", "lower", "step_p50_ms on local_evolve_merge"),
    ("wire_bytes_per_logical_byte", "ratio", "lower", "push_p50_ms, clone_p50_ms"),
    ("client.push_tail_ms", "ms", "lower", "cycle_p50_ms"),
    ("client.fetch_tail_ms", "ms", "lower", "reads_per_s"),
    ("client.clone_tail_ms", "ms", "lower", "reads_per_s"),
    ("client.poll_tail_ms", "ms", "lower", "reads_per_s"),
    ("client.pull_merge_p50_ms", "ms", "lower", "cycle_p50_ms"),
    ("client.pull_ff_p50_ms", "ms", "lower", "cycle_p50_ms"),
    ("client.push_rejected_p50_ms", "ms", "lower", "cycle_p50_ms"),
]

LAYER = [
    ("client.serialize.s", "s", "lower", "commit_p50_ms, linear_s"),
    ("client.serialize.bytes", "bytes", "lower", "commit_p50_ms"),
    ("client.chunking.s", "s", "lower", "commit_p50_ms, ingest_mb_per_s"),
    ("client.chunking.bytes", "bytes", "lower", "commit_p50_ms"),
    ("client.chunking.chunks", "count", "lower", "commit_p50_ms, push_p50_ms"),
    ("client.hashing.s", "s", "lower", "commit_p50_ms, clone_p50_ms"),
    ("hub.hashing.s", "s", "lower", "push_p50_ms"),
    ("client.chunk_store.put_s", "s", "lower", "commit_p50_ms, clone_p50_ms"),
    ("client.chunk_store.get_s", "s", "lower", "push_p50_ms"),
    ("client.chunk_store.dedup_ratio", "ratio", "higher", "wire_bytes_per_logical_byte"),
    ("hub.chunk_store.write_s", "s", "lower", "push_p50_ms, ingest_mb_per_s"),
    ("hub.chunk_store.read_s", "s", "lower", "clone_p50_ms"),
    ("hub.chunk_store.files_written", "count", "lower", "push_p50_ms"),
    ("hub.chunk_store.bytes_written", "bytes", "lower", "stored_bytes_per_logical_byte"),
    ("hub.chunk_store.bytes_read", "bytes", "lower", "clone_p50_ms"),
    ("hub.chunk_store.dedup_ratio", "ratio", "higher", "stored_bytes_per_logical_byte"),
    ("client.checkpoint.save_s", "s", "lower", "commit_p50_ms, linear_s"),
    ("client.checkpoint.load_s", "s", "lower", "merge_s"),
    ("client.checkpoint.reuse_ratio", "ratio", "higher", "merge_s, linear_s"),
    ("client.executor.component_s", "s", "lower", "linear_s, merge_s"),
    ("client.executor.overhead_s", "s", "lower", "linear_s, merge_s"),
    ("client.executor.stages_executed", "count", "lower", "linear_s, merge_s"),
    ("client.executor.stages_reused", "count", "higher", "linear_s, merge_s"),
    ("client.engine.worker_busy_share", "ratio", "higher", "merge_parallel_s"),
    ("client.merge.search_overhead_s", "s", "lower", "merge_s, client.pull_merge_p50_ms"),
    ("client.merge.candidates_total", "count", "lower", "merge_s"),
    ("client.merge.candidates_evaluated", "count", "lower", "merge_s, merge_parallel_s"),
    ("client.ledger.append_s", "s", "lower", "commit_p50_ms"),
    ("client.ledger.records", "count", "lower", "commit_p50_ms"),
    ("hub.ledger.append_s", "s", "lower", "push_p50_ms"),
    ("client.protocol.encode_s", "s", "lower", "poll_p50_ms, reads_per_s"),
    ("client.protocol.decode_s", "s", "lower", "poll_p50_ms, clone_p50_ms"),
    ("client.protocol.frames", "count", "lower", "poll_p50_ms"),
    ("hub.protocol.encode_s", "s", "lower", "clone_p50_ms, reads_per_s"),
    ("hub.protocol.decode_s", "s", "lower", "push_p50_ms"),
    ("client.pack.assemble_s", "s", "lower", "push_p50_ms"),
    ("client.pack.import_s", "s", "lower", "clone_p50_ms, fetch_p50_ms"),
    ("hub.pack.assemble_s", "s", "lower", "clone_p50_ms, fetch_p50_ms"),
    ("hub.pack.import_s", "s", "lower", "push_p50_ms"),
    ("client.transport.wire_s", "s", "lower", "poll_p50_ms, reads_per_s"),
    ("client.transport.calls", "count", "lower", "poll_p50_ms, push_p50_ms"),
    ("client.transport.bytes_sent", "bytes", "lower", "push_p50_ms"),
    ("client.transport.bytes_received", "bytes", "lower", "clone_p50_ms"),
    ("client.transport.reconnects", "count", "lower", "poll_p50_ms"),
    ("hub.http.s", "s", "lower", "poll_p50_ms, reads_per_s"),
    ("hub.http.requests", "count", "lower", "reads_per_s"),
    ("hub.server.handle_s", "s", "lower", "fetch_p50_ms, reads_per_s"),
    ("hub.server.validate_s", "s", "lower", "poll_p50_ms"),
    ("hub.server.lock_wait_s", "s", "lower", "fetch_p50_ms on ingest_beside_reads"),
    ("hub.server.cache_hit_ratio", "ratio", "higher", "fetch_p50_ms, reads_per_s"),
    ("hub.server.cache_lookups", "count", "lower", "reads_per_s"),
    ("hub.admission.s", "s", "lower", "poll_p50_ms"),
    ("hub.admission.denied", "count", "lower", "failed ops"),
    ("hub.admission.shed", "count", "lower", "failed ops"),
    ("hub.backend.acquire_s", "s", "lower", "push_p50_ms, ingest_mb_per_s"),
    ("hub.persist.s", "s", "lower", "push_p50_ms, ingest_mb_per_s"),
    ("hub.persist.bytes", "bytes", "lower", "push_p50_ms"),
    ("hub.loads", "count", "lower", "push_p50_ms"),
    ("hub.evictions", "count", "lower", "push_p50_ms"),
    ("hub.cpu_s", "s", "lower", "reads_per_s, cpu_ms_per_step"),
    ("hub.cpu_share", "ratio", "lower", "reads_per_s once it nears 1"),
    ("client.cpu_s", "s", "lower", "cpu_ms_per_step"),
    ("client.unattributed_share", "ratio", "lower", "a finding when above 0.10"),
    ("hub.unattributed_share", "ratio", "lower", "a finding when above 0.10"),
    ("trace.overhead_share", "ratio", "lower", "how far traced figures sit above untraced"),
]

PER_LAYER = PER_OP + LAYER


def _p50_ms(samples) -> float:
    return median(samples) * 1e3 if samples else 0.0


def _tail_ms(samples) -> float:
    found = tail(samples) if samples else None
    return found[1] * 1e3 if found else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(setup_s: float, run: dict) -> dict[str, float]:
    """``run`` is what :func:`run.measure_section` returns."""
    steps = run["ops"].steps
    counts = run["counts"]
    return {
        "setup_s": setup_s,
        "step_p50_ms": _p50_ms(steps),
        "cpu_ms_per_step": _ratio((run["client_cpu_s"] + run["hub_cpu_s"]) * 1e3, len(steps)),
        "peak_rss_mb": run["peak_rss_mb"],
        "stored_bytes_per_logical_byte": _ratio(
            counts.get("stored_bytes", 0), counts.get("logical_bytes", 0)
        ),
    }


def per_op(run: dict) -> dict[str, float]:
    """The per-operation figures of one untraced section."""
    samples = run["ops"].samples
    counts = run["counts"]
    workload = run["workload"]
    phases = workload.phase_s
    reads = sum(len(samples.get(kind, ())) for kind in ("poll", "fetch", "clone"))
    section = {
        "cycle_p50_ms": _p50_ms(run["ops"].steps),
        "reads_per_s": _ratio(reads, run["wall_s"]),
        "ingest_mb_per_s": _ratio(counts.get("hub_new_bytes", 0) / 1e6, run["wall_s"]),
        "wire_bytes_per_logical_byte": _ratio(
            counts.get("wire_bytes", 0), counts.get("logical_bytes", 0)
        ),
    }
    figures = {name: value if name in workload.figures else 0.0 for name, value in section.items()}
    for kind in ("commit", "push", "fetch", "clone", "poll"):
        figures[f"{kind}_p50_ms"] = _p50_ms(samples.get(kind))
    for phase in ("linear", "merge", "merge_parallel"):
        figures[f"{phase}_s"] = median(phases[phase]) if phases.get(phase) else 0.0
    for kind in ("push", "fetch", "clone", "poll"):
        figures[f"client.{kind}_tail_ms"] = _tail_ms(samples.get(kind))
    for kind in ("pull_merge", "pull_ff", "push_rejected"):
        figures[f"client.{kind}_p50_ms"] = _p50_ms(samples.get(kind))
    return figures


def layer_table(run: dict, untraced: dict) -> dict[str, float]:
    """The layer figures of one traced section. ``run`` additionally holds
    the client and hub span summaries, the hub's ``/metrics`` delta and
    the transports' byte counters."""
    client, hub = run["client_spans"], run["hub_spans"]
    counts, scrape = run["counts"], run["hub_metrics"]
    workload = run["workload"]
    executed = counts.get("stages_executed", 0)
    reused = counts.get("stages_reused", 0)
    logical = counts.get("logical_bytes", 0)
    parallel_s = sum(workload.phase_s.get("merge_parallel", ()))
    written = row(hub, "chunk_store", "FileChunkStore._write")
    hits = scrape.get("repro_cache_hits_total", 0.0)
    lookups = hits + scrape.get("repro_cache_misses_total", 0.0)
    base = median(untraced["ops"].steps)
    return {
        "client.serialize.s": _self(client, "serialize"),
        "client.serialize.bytes": row(client, "serialize", "payload_to_bytes")["work"],
        "client.chunking.s": _self(client, "chunking"),
        "client.chunking.bytes": row(client, "chunking", "ContentDefinedChunker.split")["work"],
        "client.chunking.chunks": row(client, "chunk_store", "ChunkStore.put")["calls"],
        "client.hashing.s": _self(client, "hashing"),
        "hub.hashing.s": _self(hub, "hashing"),
        "client.chunk_store.put_s": _self(
            client, "chunk_store", "ObjectStore.put", "ChunkStore.put", "ChunkStore.import_chunk"
        ),
        "client.chunk_store.get_s": _self(
            client, "chunk_store", "ObjectStore.get", "ChunkStore.get", "ChunkStore.missing"
        ),
        # only sections that commit keep this book (read_storm does not)
        "client.chunk_store.dedup_ratio": _ratio(logical, logical - counts["dedup_hit_bytes"])
        if "dedup_hit_bytes" in counts else 0.0,
        "hub.chunk_store.write_s": _self(
            hub, "chunk_store", "ObjectStore.put", "ChunkStore.put", "ChunkStore.import_chunk",
            "FileChunkStore._write", "SharedChunkBackend.acquire",
        ),
        "hub.chunk_store.read_s": _self(
            hub, "chunk_store", "ObjectStore.get", "ChunkStore.get", "ChunkStore.missing",
            "FileChunkStore._read", "SharedChunkBackend.read",
        ),
        "hub.chunk_store.files_written": written["calls"],
        "hub.chunk_store.bytes_written": written["work"],
        "hub.chunk_store.bytes_read": row(hub, "chunk_store", "FileChunkStore._read")["work"],
        "hub.chunk_store.dedup_ratio": _ratio(
            row(hub, "chunk_store", "SharedChunkBackend.acquire")["work"], written["work"]
        ),
        "client.checkpoint.save_s": _self(client, "checkpoint", "CheckpointStore.save"),
        "client.checkpoint.load_s": _self(
            client, "checkpoint", "CheckpointStore.load", "CheckpointStore.lookup"
        ),
        "client.checkpoint.reuse_ratio": _ratio(reused, executed + reused),
        "client.executor.component_s": _self(client, "component"),
        "client.executor.overhead_s": _self(client, "executor"),
        "client.executor.stages_executed": executed,
        "client.executor.stages_reused": reused,
        "client.engine.worker_busy_share": _ratio(
            row(client, "executor", "ParallelExecutor.run")["total_s"],
            workload.workers * parallel_s,
        ),
        "client.merge.search_overhead_s": _self(client, "merge"),
        "client.merge.candidates_total": counts.get("candidates_total", 0),
        "client.merge.candidates_evaluated": counts.get("candidates_evaluated", 0),
        "client.ledger.append_s": _self(client, "ledger"),
        "client.ledger.records": counts.get("ledger_records", 0),
        "hub.ledger.append_s": _self(hub, "ledger"),
        "client.protocol.encode_s": _self(client, "protocol", "encode_message"),
        "client.protocol.decode_s": _self(client, "protocol", "decode_message"),
        "client.protocol.frames": row(client, "protocol", "encode_message")["calls"]
        + row(client, "protocol", "decode_message")["calls"],
        "hub.protocol.encode_s": _self(hub, "protocol", "encode_message"),
        "hub.protocol.decode_s": _self(hub, "protocol", "decode_message"),
        "client.pack.assemble_s": _self(
            client, "pack", "commits_to_send", "content_of_commits", "pack_meta"
        ),
        "client.pack.import_s": _self(
            client, "pack", "import_specs", "import_content", "import_commits"
        ),
        "hub.pack.assemble_s": _self(hub, "pack", "commits_to_send", "content_of_commits", "pack_meta"),
        "hub.pack.import_s": _self(hub, "pack", "import_specs", "import_content", "import_commits"),
        # What a call costs beyond the hub's request handler: sockets, the
        # HTTP stack on both sides (so it overlaps hub.http.s), hand-off.
        "client.transport.wire_s": max(
            0.0,
            row(client, "transport", "Transport.call")["total_s"]
            - row(hub, "hub", "RepositoryHub.handle_request")["total_s"],
        ),
        "client.transport.calls": row(client, "transport", "Transport.call")["calls"],
        "client.transport.bytes_sent": run["bytes_sent"],
        "client.transport.bytes_received": run["bytes_received"],
        "client.transport.reconnects": run["reconnects"],
        "hub.http.s": _self(hub, "http"),
        "hub.http.requests": row(hub, "http", "BaseRPCHandler.do_POST")["calls"],
        "hub.server.handle_s": _self(hub, "server"),
        "hub.server.validate_s": _self(hub, "validate"),
        "hub.server.lock_wait_s": scrape.get("repro_lock_wait_seconds_sum", 0.0),
        "hub.server.cache_hit_ratio": _ratio(hits, lookups),
        "hub.server.cache_lookups": lookups,
        "hub.admission.s": _self(hub, "admission"),
        "hub.admission.denied": scrape.get("repro_admission_denied_total", 0.0),
        "hub.admission.shed": scrape.get('repro_admission_denied_total{reason="overload"}', 0.0),
        "hub.backend.acquire_s": _self(hub, "hub_acquire"),
        "hub.persist.s": _self(hub, "persist"),
        "hub.persist.bytes": row(hub, "persist", "write_json_atomic")["work"],
        "hub.loads": scrape.get("repro_hub_loads_total", 0.0),
        "hub.evictions": scrape.get("repro_hub_evictions_total", 0.0),
        "hub.cpu_s": run["hub_cpu_s"],
        "hub.cpu_share": _ratio(run["hub_cpu_s"], run["wall_s"]),
        "client.cpu_s": run["client_cpu_s"],
        "client.unattributed_share": _ratio(_self(client, "ops"), client["root_s"]),
        "hub.unattributed_share": _ratio(_self(hub, "hub"), hub["root_s"]),
        "trace.overhead_share": _ratio(median(run["ops"].steps) - base, base),
    }


def benchmark_spec() -> dict:
    """The content of ``BENCHMARK.json``, derived from the tables above."""
    from workloads import BASE_SECONDS, WORKLOADS

    return {
        "command": ["python3", "benchmarks/budget/run.py"],
        "paths": ["benchmarks/budget"],
        "run_seconds": BASE_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_spec(), indent=2))
