"""Lineage rides sync and survives persistence, GC, hub hosting, CLI."""

import io
import json

import pytest

from repro import MLCask
from repro.cli import main
from repro.core.persistence import gc_repository_dir
from repro.hub import RepositoryHub
from repro.provenance import EXECUTED, LineageRecord
from repro.remote import LocalTransport, RepositoryServer, clone_repository
from repro.remote.client import Remote
from repro.workloads import ALL_WORKLOADS

from helpers import build_workload_repo, committed_rows, fresh_toy_repo, toy_model


@pytest.fixture(scope="module")
def workload():
    return ALL_WORKLOADS["readmission"](scale=0.3, seed=0)


def unbound_record(output_ref="feedbeef"):
    """A synthetic record never tied to a commit (a run that was not
    committed) — must stay local on push."""
    return LineageRecord(
        checkpoint_key=f"key-{output_ref}",
        stage="clean",
        pipeline="toy",
        component_id="toy.clean@master@0.0",
        component_fingerprint="fp",
        component_version="master@0.0",
        params_digest="pd",
        input_refs=(),
        output_ref=output_ref,
        seed=0,
        tenant="",
        via=EXECUTED,
    )


class TestDirPersistence:
    def test_save_load_round_trip_preserves_ledger(self, tmp_path):
        repo = fresh_toy_repo()
        repo.commit("toy", {"model": toy_model(1, 0.6)})
        repo.save_dir(tmp_path / "A")
        assert len(committed_rows(tmp_path / "A")["lineage"]) == len(repo.lineage)
        loaded = MLCask.load_dir(tmp_path / "A", registry=repo.registry)
        assert loaded.lineage.records() == repo.lineage.records()
        # commit back-fill survives the trip
        assert all(r.commit_id for r in loaded.lineage.records())

    def test_gc_repository_dir_flags_collected_on_disk(self, tmp_path):
        repo = fresh_toy_repo()
        repo.lineage.append(unbound_record())  # orphan: no commit refs it
        repo.save_dir(tmp_path / "A")
        gc_repository_dir(tmp_path / "A")
        entries = committed_rows(tmp_path / "A")["lineage"]
        assert len(entries) == len(repo.lineage)  # append-only on disk too
        by_ref = {e["output_ref"]: e for e in entries}
        assert by_ref["feedbeef"]["collected"] is True
        live = repo.head_commit("toy").stage_outputs.values()
        assert all(by_ref[ref]["collected"] is False for ref in live)


class TestPushPull:
    def test_clone_replicates_ledger(self, workload):
        server_repo = build_workload_repo(workload)
        transport = LocalTransport(RepositoryServer(server_repo))
        clone = clone_repository(transport, registry=server_repo.registry)
        assert clone.lineage.records() == server_repo.lineage.records()

    def test_push_ships_commit_tagged_records_once(self, workload):
        server_repo = build_workload_repo(workload)
        transport = LocalTransport(RepositoryServer(server_repo))
        clone = clone_repository(transport, registry=server_repo.registry)
        before = len(server_repo.lineage)
        clone.commit(workload.name, {"model": workload.model_version(2)})
        new_records = [r for r in clone.lineage.records() if r not in set(server_repo.lineage.records())]
        assert new_records  # the local commit minted fresh rows
        clone.remote("origin").push(workload.name, "master")
        after = set(server_repo.lineage.records())
        assert all(r in after for r in new_records)
        grown = len(server_repo.lineage)
        assert grown == before + len(new_records)  # imported exactly once
        # idempotent: an up-to-date push never doubles the ledger
        clone.remote("origin").push(workload.name, "master")
        assert len(server_repo.lineage) == grown

    def test_uncommitted_records_stay_local(self, workload):
        server_repo = build_workload_repo(workload)
        transport = LocalTransport(RepositoryServer(server_repo))
        clone = clone_repository(transport, registry=server_repo.registry)
        clone.commit(workload.name, {"model": workload.model_version(2)})
        clone.lineage.append(unbound_record())
        clone.remote("origin").push(workload.name, "master")
        assert "feedbeef" not in {
            r.output_ref for r in server_repo.lineage.records()
        }

    def test_pull_imports_server_side_history(self, workload):
        server_repo = build_workload_repo(workload)
        transport = LocalTransport(RepositoryServer(server_repo))
        clone = clone_repository(transport, registry=server_repo.registry)
        server_repo.commit(workload.name, {"model": workload.model_version(2)})
        clone.remote("origin").pull(workload.name, "master")
        server_set = set(server_repo.lineage.records())
        assert all(r in server_set for r in clone.lineage.records())
        assert set(clone.lineage.records()) == server_set


class TestLineageRPC:
    def test_lineage_and_impact_over_the_wire(self, workload):
        server_repo = build_workload_repo(workload)
        transport = LocalTransport(RepositoryServer(server_repo))
        remote = Remote(repo=None, transport=transport)
        head = server_repo.head_commit(workload.name)
        ref = head.stage_outputs[workload.model_stage]
        result = remote.lineage(ref[:12])
        assert result["ref"] == ref
        assert result["nodes"]
        impact = remote.impact(workload.model_stage)
        assert ref in impact["outputs"]


class TestHubHosting:
    def _push(self, hub, workload, tenant="ana", repo="proj", token="tok-ana"):
        local = build_workload_repo(workload)
        remote = local.add_remote(
            f"{tenant}-{repo}", hub.local_transport(tenant, repo, token)
        )
        remote.push(workload.name)
        return local

    def test_ledger_persists_under_hub_root_and_reloads(self, tmp_path, workload):
        hub = RepositoryHub(root=tmp_path / "hub")
        hub.add_tenant("ana", tokens=["tok-ana"])
        local = self._push(hub, workload)
        ledger_path = (
            tmp_path / "hub" / "tenants" / "ana" / "proj" / "lineage.0.jsonl"
        )
        assert ledger_path.is_file()
        # a fresh hub over the same root serves the same ledger
        reborn = RepositoryHub(root=tmp_path / "hub")
        remote = Remote(
            repo=None, transport=reborn.local_transport("ana", "proj", "tok-ana")
        )
        ref = local.head_commit(workload.name).stage_outputs[
            workload.model_stage
        ]
        result = remote.lineage(ref)
        assert result["ref"] == ref

    def test_lineage_counter_lands_in_hub_registry(self, workload):
        hub = RepositoryHub()
        hub.add_tenant("ana", tokens=["tok-ana"])
        self._push(hub, workload)
        value = hub.registry.value(
            "repro_lineage_records_total", tenant="ana", repo="proj"
        )
        assert value > 0
        assert "repro_lineage_records_total" in hub.registry.render_prometheus()

    def test_hub_gc_marks_collected_keeps_records(self, workload):
        hub = RepositoryHub()
        hub.add_tenant("ana", tokens=["tok-ana"])
        self._push(hub, workload)
        transport = hub.local_transport("ana", "proj", "tok-ana")
        before = Remote(repo=None, transport=transport).stats()["lineage"]
        hub.gc_repo("ana", "proj")
        after = Remote(repo=None, transport=transport).stats()["lineage"]
        assert after["records"] == before["records"] > 0


class TestLineageCLI:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    @pytest.fixture
    def repo_dir(self, tmp_path):
        repo = fresh_toy_repo()
        repo.commit("toy", {"model": toy_model(1, 0.6)})
        path = tmp_path / "repo"
        repo.save_dir(path)
        ref = repo.head_commit("toy").stage_outputs["model"]
        return str(path), ref

    def test_human_lineage_listing(self, repo_dir):
        path, ref = repo_dir
        code, text = self.run_cli(["lineage", path, ref[:12]])
        assert code == 0
        assert f"lineage of {ref[:12]}" in text
        assert "toy.model" in text

    def test_json_lineage_document(self, repo_dir):
        path, ref = repo_dir
        code, text = self.run_cli(["lineage", path, ref, "--json"])
        assert code == 0
        assert json.loads(text)["ref"] == ref

    def test_consumers_listing(self, repo_dir):
        path, ref = repo_dir
        code, text = self.run_cli(["lineage", path, ref, "--consumers"])
        assert code == 0
        assert "downstream record(s)" in text

    @pytest.mark.parametrize(
        "extra", [[], ["--trace", "ab" * 8]], ids=["no-ref", "trace-flag"]
    )
    def test_ref_is_required_and_trace_is_gone(self, repo_dir, extra):
        path, _ = repo_dir
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(["lineage", path, *extra])
        assert exit_info.value.code == 2

    def test_unknown_ref_is_a_clean_error(self, repo_dir):
        path, _ = repo_dir
        code, text = self.run_cli(["lineage", path, "ffffffffffff"])
        assert code == 1 and "no lineage" in text

    def test_impact_verb(self, repo_dir):
        path, ref = repo_dir
        code, text = self.run_cli(["impact", path, "toy.model"])
        assert code == 0
        assert "impact of toy.model" in text
        assert "toy:master" in text
        code, text = self.run_cli(["impact", path, "toy.model", "--json"])
        assert code == 0
        assert ref in json.loads(text)["outputs"]

    def test_stats_verb_shows_lineage_section(self, repo_dir):
        path, _ = repo_dir
        code, text = self.run_cli(["stats", path])
        assert code == 0
        assert "lineage:" in text and "records" in text
