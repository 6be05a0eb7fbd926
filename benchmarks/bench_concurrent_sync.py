"""Concurrent sync: aggregate read throughput, with and without the response cache.

The collaborative workload the remote subsystem exists for (paper §III,
§VI): many readers cloning and polling a shared repository while a writer
publishes updates. Two server configurations race over HTTP against a
threaded ``serve()`` instance:

* **uncached baseline** — reader-writer locking (reads in parallel,
  pushes exclusive), response cache off (``cache_entries=0``): every
  read recomputes its pack metadata;
* **concurrent** — the same server with the revision-keyed response
  cache, so what the pair isolates is the cache.

Each reader replays the clone-shaped read mix — ``manifest`` plus a full
``fetch`` — while the writer lands pushes on fresh branches (each push
invalidating the cache). Target (ISSUE 2): with 4+ readers, aggregate
read throughput of the concurrent server is >= 2x the baseline, and a
malformed push answered mid-storm leaves the server serving.

Telemetry riders (ISSUE 6): after the storm the server's own ``stats``
op must report an effective cache (hit rate asserted, not inferred from
wall clock), and a third storm against an *uninstrumented* server
(null registry/tracer) bounds the metrics overhead at <= 5% of read
throughput. The instrumented run's registry snapshot is dumped to
``results/obs_concurrent_sync_metrics.json``.
"""

import json
import threading
import time

from conftest import BENCH_SCALE, BENCH_SEED, BENCH_SMOKE, write_bench_record, write_result

from repro.core.repository import MLCask
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import NULL_TRACER
from repro.remote import HttpTransport, clone_repository, serve
from repro.remote.protocol import decode_message, encode_message
from repro.workloads import ALL_WORKLOADS

N_READERS = 4
N_READS = 6 if BENCH_SMOKE else 60  # read iterations per reader
N_PUSHES = 2 if BENCH_SMOKE else 4  # writer pushes during the storm
N_HISTORY = 4 if BENCH_SMOKE else 12  # commits in the shared history

#: An error response's header is ``{"blob_sizes":[],"meta":{"error":...``
#: (keys sorted), so the marker sits at a fixed, early offset.
_ERROR_MARKER = b'"meta":{"error"'


def build_shared_repo(workload, seed):
    repo = MLCask(metric=workload.metric, seed=seed)
    repo.create_pipeline(
        workload.spec, workload.initial_components(), message="initial pipeline"
    )
    for idx in range(1, N_HISTORY + 1):
        if idx % 4 == 0:
            updates = {"clean": workload.stage_version("clean", idx)}
        else:
            updates = {workload.model_stage: workload.model_version(idx)}
        repo.commit(workload.name, updates, message=f"update {idx}")
    return repo


def run_scenario(cache_entries: int, registry=None, tracer=None) -> dict:
    """One readers-plus-writer storm; returns throughput and checks.

    ``registry``/``tracer`` pass through to :func:`serve` — None means
    the instrumented default, the null singletons mean bare metal (the
    overhead comparison's other arm).
    """
    workload = ALL_WORKLOADS["readmission"](scale=BENCH_SCALE, seed=BENCH_SEED)
    shared = build_shared_repo(workload, BENCH_SEED)
    server = serve(
        shared,
        host="127.0.0.1",
        port=0,
        cache_entries=cache_entries,
        registry=registry,
        tracer=tracer,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # The writer's commits are prepared up front so the timed window
        # contains sync traffic, not model training.
        writer = clone_repository(
            HttpTransport(server.url), registry=shared.registry
        )
        pushed = {}
        for idx in range(N_PUSHES):
            branch = f"bench-{idx}"
            writer.branch(workload.name, branch)
            commit, _ = writer.commit(
                workload.name,
                {workload.model_stage: workload.model_version(N_HISTORY + 1 + idx)},
                branch=branch,
                message=f"writer update {idx}",
            )
            pushed[branch] = commit.commit_id

        # The clone-bootstrap read, as raw request bytes — identical
        # across readers, exactly what a fleet of pollers and fresh
        # clones sends. Readers are *load generators* for server
        # throughput: real clients decode on their own machines, so
        # spending reader CPU on json parsing here (same process, same
        # GIL as the server) would understate the server's capacity —
        # each reader fully decodes its first and last response and
        # cheap-checks the rest for error frames.
        read_request = encode_message(
            {"op": "fetch", "want": None, "have_commits": []}
        )
        errors: list[Exception] = []
        start = threading.Barrier(N_READERS + 2, timeout=60)

        def reader():
            try:
                transport = HttpTransport(server.url)
                start.wait()
                for iteration in range(N_READS):
                    response = transport.call(read_request)
                    if iteration in (0, N_READS - 1):
                        meta, _ = decode_message(response)
                        if "error" in meta:
                            raise RuntimeError(f"read failed: {meta['error']}")
                        assert meta.get("refs"), "fetch lost its refs"
                    elif _ERROR_MARKER in response[:48]:
                        raise RuntimeError("server answered an error frame")
                transport.close()
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def pusher():
            try:
                start.wait()
                for branch in pushed:
                    writer.remote("origin").push(workload.name, branch)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(N_READERS)]
        threads.append(threading.Thread(target=pusher))
        for t in threads:
            t.start()
        start.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join(timeout=300)
        elapsed = time.perf_counter() - t0

        assert errors == [], errors
        assert not any(t.is_alive() for t in threads)
        for branch, head in pushed.items():
            assert shared.branches.head(workload.name, branch) == head

        # Hardening probe, mid-deployment: a malformed push (ref update
        # missing "new") must come back as a typed error over HTTP with
        # the server still serving afterwards.
        probe = HttpTransport(server.url)
        bad = probe.call(
            encode_message(
                {"op": "push", "refs": {workload.name: {"master": {}}}}
            )
        )
        bad_meta, _ = decode_message(bad)
        assert bad_meta["error"]["type"] == "RemoteProtocolError"
        ok_meta, _ = decode_message(probe.call(encode_message({"op": "manifest"})))
        assert "refs" in ok_meta

        # The server's own telemetry readout, over the wire: the stats
        # op is how effectiveness is asserted rather than inferred.
        stats_meta, _ = decode_message(probe.call(encode_message({"op": "stats"})))
        probe.close()

        reads = N_READERS * N_READS
        return {
            "elapsed": elapsed,
            "reads": reads,
            "throughput": reads / elapsed,
            "cache_hits": server.endpoint.cache.hits,
            "stats": stats_meta["stats"],
            "metrics": server.metrics_registry.snapshot(),
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def test_concurrent_read_throughput():
    baseline = run_scenario(cache_entries=0)
    concurrent = run_scenario(cache_entries=128)
    # Same concurrent configuration with the null registry/tracer: the
    # bare-metal arm of the instrumentation-overhead comparison.
    bare = run_scenario(
        cache_entries=128, registry=NULL_REGISTRY, tracer=NULL_TRACER
    )
    speedup = concurrent["throughput"] / baseline["throughput"]
    overhead_ratio = concurrent["throughput"] / bare["throughput"]

    cache_stats = concurrent["stats"]["cache"]
    lines = [
        f"{N_READERS} readers x {N_READS} iterations, {N_PUSHES} pushes "
        f"(history {N_HISTORY + 1} commits, scale {BENCH_SCALE}, "
        f"seed {BENCH_SEED}{', SMOKE' if BENCH_SMOKE else ''})",
        f"rwlock, no cache      {baseline['throughput']:>9.1f} reads/s  "
        f"({baseline['elapsed'] * 1000:.0f} ms for {baseline['reads']} reads)",
        f"rwlock + cache        {concurrent['throughput']:>9.1f} reads/s  "
        f"({concurrent['elapsed'] * 1000:.0f} ms, "
        f"{concurrent['cache_hits']} cache hits)",
        f"uninstrumented        {bare['throughput']:>9.1f} reads/s  "
        f"(instrumented/bare ratio {overhead_ratio:.3f})",
        f"aggregate speedup     {speedup:>9.2f}x",
        f"stats op: cache hit rate {cache_stats['hit_rate']:.1%} "
        f"({cache_stats['hits']} hits / {cache_stats['misses']} misses)",
        "malformed push during storm: typed error, server kept serving",
    ]
    write_result("concurrent_sync.txt", "\n".join(lines))
    write_bench_record(
        "concurrent_sync",
        {
            "reads_per_second": {
                "uncached": baseline["throughput"],
                "rwlock_cache": concurrent["throughput"],
                "uninstrumented": bare["throughput"],
            },
            "speedup": speedup,
            "instrumentation_ratio": overhead_ratio,
            "cache_hit_rate": cache_stats["hit_rate"],
        },
    )
    write_result(
        "obs_concurrent_sync_metrics.json",
        json.dumps(concurrent["metrics"], indent=2, sort_keys=True),
    )

    assert concurrent["cache_hits"] > 0
    # Cache effectiveness asserted through the server's own stats op.
    assert cache_stats["hits"] == concurrent["cache_hits"]
    assert cache_stats["hit_rate"] > 0
    # The instrumented server's registry saw the storm.
    requests = concurrent["metrics"]["repro_requests_total"]["series"]
    assert sum(s["value"] for s in requests) > 0
    assert bare["metrics"] == {}  # null registry: nothing recorded
    if not BENCH_SMOKE:
        # ISSUE 2 acceptance: >= 2x aggregate read throughput with 4+
        # concurrent readers vs. the cache-less baseline.
        assert speedup >= 2.0, speedup
        # ISSUE 6 acceptance: identical reads, mostly identical state —
        # the cache should be absorbing the storm.
        assert cache_stats["hit_rate"] >= 0.5, cache_stats
        # ISSUE 6 acceptance: instrumentation costs <= 5% read throughput.
        assert overhead_ratio >= 0.95, overhead_ratio
