"""The layer table on the quick pass: who works where, and who must not."""


def value(result, name):
    return result["metrics"][name]["value"]


def test_read_storm_does_no_write_path_work(quick_results):
    storm = quick_results[("read_storm", 1)]
    hub_busy = value(storm, "hub.http.s") + sum(
        value(storm, name)
        for name in (
            "hub.server.handle_s", "hub.chunk_store.read_s", "hub.protocol.encode_s",
            "hub.protocol.decode_s", "hub.pack.assemble_s", "hub.admission.s",
        )
    )
    assert hub_busy > 0
    assert value(storm, "hub.chunk_store.write_s") < 0.02 * hub_busy
    assert value(storm, "hub.chunk_store.files_written") == 0
    assert value(storm, "hub.persist.s") == 0
    for name in (
        "client.executor.component_s", "client.executor.overhead_s",
        "client.executor.stages_executed", "client.merge.search_overhead_s",
        "client.serialize.s", "client.chunking.s", "client.checkpoint.save_s",
    ):
        assert value(storm, name) == 0, name
    # read path: hit-heavy cache, no denials, nothing waits for a writer
    assert value(storm, "hub.server.cache_hit_ratio") > 0.5
    assert value(storm, "hub.admission.denied") == 0
    assert value(storm, "poll_p50_ms") > 0 and value(storm, "clone_p50_ms") > 0
    assert value(storm, "reads_per_s") > 0


def test_local_workload_touches_no_hub_and_no_wire(quick_results):
    local = quick_results[("local_evolve_merge", 1)]
    for name, entry in local["metrics"].items():
        if name.startswith(("hub.", "client.transport.", "client.protocol.", "client.pack.")):
            assert entry["value"] == 0, name
    for name in ("push_p50_ms", "fetch_p50_ms", "clone_p50_ms", "poll_p50_ms"):
        assert value(local, name) == 0
    assert value(local, "client.executor.component_s") > 0
    assert value(local, "client.executor.stages_executed") > 0
    assert value(local, "client.executor.stages_reused") > 0
    assert value(local, "client.merge.candidates_evaluated") > 0
    assert 0 < value(local, "client.engine.worker_busy_share") <= 1.0
    assert value(local, "linear_s") > 0 and value(local, "merge_parallel_s") > 0


def test_layer_self_times_account_for_the_traced_ops(quick_results):
    for key in (("read_storm", 1), ("local_evolve_merge", 1)):
        result = quick_results[key]
        assert 0 <= value(result, "client.unattributed_share") < 0.10
        assert 0 <= value(result, "hub.unattributed_share") < 0.10
        assert result["details"]["spans"]["client"] > 0


def test_collab_cycle_counts_every_op(quick_results):
    collab = quick_results[("collab_cycle", 0)]
    steps = collab["details"]["steps"]
    assert collab["attempted"] == 7 * steps
    assert set(collab["details"]["samples"]) == {
        "commit", "push", "commit_clean", "push_rejected", "pull_merge", "push_merge", "pull_ff",
    }
