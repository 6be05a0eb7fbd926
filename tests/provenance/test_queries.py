"""Lineage queries: audit closure, consumers, what-if impact, forensics."""

import pytest

from repro.core import MLCask
from repro.errors import LineageNotFoundError
from repro.provenance.queries import resolve_output_ref

from helpers import (
    TOY_SPEC,
    build_fig3_history,
    fresh_toy_repo,
    toy_clean,
    toy_initial_components,
    toy_model,
)

STAGES = ("dataset", "clean", "extract", "model")


def distinct_toy_repo() -> MLCask:
    """Toy repo whose four stage outputs are four *distinct* refs.

    ``toy_clean(0)`` shifts by 0.0, so its output is content-identical to
    the dataset's — fine for capture tests, degenerate for DAG-shape
    assertions. ``toy_clean(1)`` perturbs the data and splits the refs.
    """
    components = toy_initial_components()
    components["clean"] = toy_clean(1)
    repo = MLCask(metric="accuracy", seed=0)
    repo.create_pipeline(TOY_SPEC, components)
    return repo


def head_outputs(repo, branch="master"):
    return repo.head_commit("toy", branch).stage_outputs


class TestCapture:
    def test_initial_commit_records_every_stage(self):
        repo = fresh_toy_repo()
        records = repo.lineage.records()
        assert [r.stage for r in records] == list(STAGES)
        assert all(r.via == "executed" for r in records)
        head = repo.head_commit("toy")
        for record in records:
            assert record.commit_id == head.commit_id
            assert record.branch == "master"
            assert record.output_ref == head.stage_outputs[record.stage]

    def test_input_refs_are_predecessor_outputs(self):
        repo = fresh_toy_repo()
        by_stage = {r.stage: r for r in repo.lineage.records()}
        assert by_stage["dataset"].input_refs == ()
        assert by_stage["clean"].input_refs == (by_stage["dataset"].output_ref,)
        assert by_stage["model"].input_refs == (by_stage["extract"].output_ref,)

    def test_update_commit_reuses_prefix(self):
        repo = fresh_toy_repo()
        repo.commit("toy", {"model": toy_model(1, 0.6)})
        later = repo.lineage.records()[4:]
        assert {r.stage: r.via for r in later} == {
            "dataset": "reused",
            "clean": "reused",
            "extract": "reused",
            "model": "executed",
        }


class TestResolveRef:
    def test_prefix_resolution(self):
        repo = distinct_toy_repo()
        full = head_outputs(repo)["model"]
        assert resolve_output_ref(repo, full[:10]) == full
        assert resolve_output_ref(repo, full) == full

    def test_unknown_and_ambiguous_refs_are_typed(self):
        repo = distinct_toy_repo()
        with pytest.raises(LineageNotFoundError, match="no lineage"):
            resolve_output_ref(repo, "ffffffffffff")
        with pytest.raises(LineageNotFoundError, match="ambiguous"):
            resolve_output_ref(repo, "")


class TestLineageOf:
    def test_closure_of_model_spans_the_chain(self):
        repo = distinct_toy_repo()
        outputs = head_outputs(repo)
        result = repo.lineage_of(outputs["model"][:12])
        assert result["ref"] == outputs["model"]
        assert {n["stage"] for n in result["nodes"]} == set(STAGES)
        assert sorted(result["edges"]) == sorted(
            [
                [outputs["dataset"], outputs["clean"]],
                [outputs["clean"], outputs["extract"]],
                [outputs["extract"], outputs["model"]],
            ]
        )
        assert [c["commit_id"] for c in result["commits"]] == [
            repo.head_commit("toy").commit_id
        ]

    def test_merge_commit_shows_as_consumer(self):
        repo = build_fig3_history()
        outcome = repo.merge("toy", "master", "dev")
        winner_model = outcome.commit.stage_outputs["model"]
        result = repo.lineage_of(winner_model)
        merges = [c for c in result["commits"] if c["merge"]]
        assert [c["commit_id"] for c in merges] == [outcome.commit.commit_id]


class TestConsumersOf:
    def test_direct_consumers_only(self):
        repo = distinct_toy_repo()
        outputs = head_outputs(repo)
        result = repo.consumers_of(outputs["clean"])
        assert {r["stage"] for r in result["consumers"]} == {"extract"}
        assert result["refs"] == [outputs["extract"]]

    def test_terminal_output_has_no_consumers(self):
        repo = distinct_toy_repo()
        result = repo.consumers_of(head_outputs(repo)["model"])
        assert result["consumers"] == []


class TestImpactOf:
    def test_mid_pipeline_component_names_exact_downstream_set(self):
        repo = distinct_toy_repo()
        outputs = head_outputs(repo)
        result = repo.impact_of("clean")
        assert result["outputs"] == sorted([outputs["clean"]])
        assert result["invalidated"] == sorted(
            [outputs["extract"], outputs["model"]]
        )
        assert result["stages"] == ["clean", "extract", "model"]
        assert result["branches"] == [{"pipeline": "toy", "branch": "master"}]

    def test_version_filter_narrows_the_match(self):
        repo = build_fig3_history()
        versions = {
            r.component_version
            for r in repo.lineage.records()
            if r.stage == "model"
        }
        assert len(versions) > 1
        one = sorted(versions)[0]
        result = repo.impact_of("model", version=one)
        assert result["matched_versions"] == [one]

    def test_unknown_component_is_typed(self):
        repo = distinct_toy_repo()
        with pytest.raises(LineageNotFoundError, match="no lineage"):
            repo.impact_of("nonexistent")


def events_of(repo, start: int) -> dict:
    """``{"executed": n, "reused": n}`` over the ledger rows from ``start``."""
    records = repo.lineage.records(start)
    return {via: sum(r.via == via for r in records) for via in ("executed", "reused")}


class TestRunEvents:
    def test_commit_appends_one_record_per_event(self):
        repo = fresh_toy_repo()
        start = len(repo.lineage)
        _, report = repo.commit("toy", {"model": toy_model(1, 0.6)})
        assert len(repo.lineage) - start == report.n_executed + report.n_reused == 4
        assert events_of(repo, start) == {"executed": 1, "reused": 3}

    @pytest.mark.parametrize("search", ["exhaustive", "prioritized", "random"])
    def test_merge_appends_one_record_per_checkpoint_event(self, search):
        repo = build_fig3_history()
        start = len(repo.lineage)
        outcome = repo.merge("toy", "master", "dev", search=search, seed=0)
        # a winner scored from history is resolved by reusing its four
        # checkpoints, after the search that the outcome counts
        winner = max(
            (e for e in outcome.evaluations if e.score is not None),
            key=lambda e: e.score,
        )
        resolved = 4 if winner.report is None else 0
        assert events_of(repo, start) == {
            "executed": outcome.components_executed,
            "reused": outcome.components_reused + resolved,
        }


class TestGC:
    def test_gc_marks_collected_but_keeps_records(self):
        repo = build_fig3_history()
        before = len(repo.lineage)
        assert before > 0
        repo.gc()
        assert len(repo.lineage) == before  # append-only survives the sweep
        live = {
            ref
            for commit in repo.graph.all_commits()
            for ref in commit.stage_outputs.values()
        }
        for record in repo.lineage.records():
            assert record.collected == (record.output_ref not in live)

    def test_collected_surfaces_in_lineage_nodes(self):
        repo = fresh_toy_repo()
        # Orphan the whole first run by committing a new model and
        # rewriting history is overkill; instead mark directly.
        repo.lineage.mark_collected(live_refs=set())
        result = repo.lineage_of(head_outputs(repo)["model"])
        assert all(n["collected"] for n in result["nodes"])
