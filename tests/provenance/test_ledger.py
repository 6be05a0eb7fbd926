"""LineageLedger unit contract: append-only, amendments, import dedup."""

import dataclasses

import pytest

from repro.codec import decode, encode
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.provenance import (
    EXECUTED,
    REUSED,
    LineageLedger,
    LineageRecord,
)


def make_record(stage="clean", output_ref="out-1", via=EXECUTED, **overrides):
    fields = dict(
        checkpoint_key=f"key-{stage}-{output_ref}",
        stage=stage,
        pipeline="toy",
        component_id=f"toy.{stage}@master@0.0",
        component_fingerprint="fp",
        component_version="master@0.0",
        params_digest="pd",
        input_refs=("in-1",),
        output_ref=output_ref,
        seed=0,
        tenant="",
        via=via,
    )
    fields.update(overrides)
    return LineageRecord(**fields)


#: The run-time facts that anchor a record in the lineage DAG — every
#: field of the dataclass that is not a later amendment.
IDENTITY_FIELDS = sorted(
    {f.name for f in dataclasses.fields(LineageRecord)}
    - {"wall_seconds", "cpu_seconds", "commit_id", "branch", "collected"}
)


class TestRecordSchema:
    def test_twelve_identity_fields(self):
        assert len(IDENTITY_FIELDS) == 12

    @pytest.mark.parametrize("field", IDENTITY_FIELDS)
    def test_omitting_an_identity_field_is_a_type_error(self, field):
        fields = dataclasses.asdict(make_record())
        del fields[field]
        with pytest.raises(TypeError, match=field):
            LineageRecord(**fields)

    def test_positional_construction_is_a_type_error(self):
        # Every field supplied, in declaration order: only the order of
        # twelve adjacent fields would say which is which.
        values = dataclasses.astuple(make_record())
        with pytest.raises(TypeError, match="positional"):
            LineageRecord(*values)


class TestRecordIdentity:
    def test_timing_and_collected_excluded_from_equality(self):
        a = make_record(wall_seconds=1.0, cpu_seconds=0.5)
        b = make_record(wall_seconds=9.0, cpu_seconds=7.0, collected=True)
        assert a == b
        assert hash(a) == hash(b)

    def test_commit_binding_is_part_of_identity(self):
        assert make_record() != make_record(commit_id="c1", branch="master")

    def test_codec_round_trip(self):
        record = make_record(
            wall_seconds=0.25,
            cpu_seconds=0.125,
            commit_id="c1",
            branch="dev",
            collected=True,
        )
        entry = encode(record)
        restored = decode(LineageRecord, entry)
        assert restored == record
        assert restored.wall_seconds == record.wall_seconds
        assert restored.cpu_seconds == record.cpu_seconds
        assert restored.collected is True

    def test_codec_keeps_the_retired_trace_fields_empty(self):
        # The journal and the wire keep their bytes: both keys are still
        # written, always empty, and an old entry's ids are ignored.
        entry = encode(make_record())
        assert entry["trace_id"] == "" and entry["span_id"] == ""
        old = dict(entry, trace_id="ab" * 8, span_id="cd" * 8)
        restored = decode(LineageRecord, old)
        assert restored == make_record()
        assert encode(restored) == entry

    @pytest.mark.parametrize("field", ["trace_id", "span_id"])
    def test_a_retired_trace_field_is_no_constructor_argument(self, field):
        fields = dataclasses.asdict(make_record())
        with pytest.raises(TypeError, match=field):
            LineageRecord(**fields, **{field: "ab" * 8})

    @pytest.mark.parametrize("field", ["trace_id", "span_id"])
    def test_an_old_peers_trace_id_does_not_split_identity(self, field):
        # Ids an older, traced peer wrote are not part of what a record
        # is: its entry dedups against the same local run.
        ledger = LineageLedger()
        ledger.append(make_record())
        entry = dict(encode(make_record()), **{field: "ab" * 8})
        assert ledger.import_entries([decode(LineageRecord, entry)]) == 0
        assert len(ledger) == 1

    def test_codec_defaults_for_pre_amendment_entries(self):
        entry = encode(make_record())
        for key in ("wall_seconds", "cpu_seconds", "commit_id", "branch", "collected"):
            del entry[key]
        restored = decode(LineageRecord, entry)
        assert restored.commit_id == "" and restored.collected is False


class TestAppendOnly:
    def test_local_appends_never_dedup(self):
        ledger = LineageLedger()
        ledger.append(make_record(via=REUSED))
        ledger.append(make_record(via=REUSED))
        assert len(ledger) == 2  # a warm re-run is its own event

    def test_import_is_idempotent(self):
        ledger = LineageLedger()
        record = decode(LineageRecord, encode(make_record()))
        assert ledger.import_entries([record, record]) == 1
        assert ledger.import_entries([record]) == 0
        assert len(ledger) == 1

    def test_import_after_local_append_dedups(self):
        ledger = LineageLedger()
        record = make_record()
        ledger.append(record)
        assert ledger.import_record(record) is False
        assert len(ledger) == 1

    def test_revision_bumps_on_every_mutation(self):
        ledger = LineageLedger()
        assert ledger.revision == 0
        row = ledger.append(make_record())
        after_append = ledger.revision
        assert after_append > 0
        ledger.annotate_commit("c1", "master", [row])
        after_annotate = ledger.revision
        assert after_annotate > after_append
        ledger.mark_collected(live_refs=set())
        assert ledger.revision > after_annotate


class TestAmendments:
    def test_annotate_commit_binds_once(self):
        ledger = LineageLedger()
        row = ledger.append(make_record())
        ledger.annotate_commit("c1", "master", [row])
        ledger.annotate_commit("c2", "dev", [row])  # already bound: no-op
        record = ledger.records()[row]
        assert record.commit_id == "c1" and record.branch == "master"
        assert [r.commit_id for r in ledger.records_for_commits(["c1"])] == ["c1"]
        assert ledger.records_for_commits(["c2"]) == []

    def test_annotated_identity_still_dedups_on_import(self):
        ledger = LineageLedger()
        row = ledger.append(make_record())
        ledger.annotate_commit("c1", "master", [row])
        bound = ledger.records()[row]
        assert ledger.import_record(bound) is False

    def test_mark_collected_retains_records(self):
        ledger = LineageLedger()
        ledger.append(make_record(output_ref="live"))
        ledger.append(make_record(stage="extract", output_ref="dead"))
        flagged = ledger.mark_collected(live_refs={"live"})
        assert flagged == 1
        assert len(ledger) == 2  # append-only: nothing deleted
        by_ref = {r.output_ref: r for r in ledger.records()}
        assert by_ref["dead"].collected is True
        assert by_ref["live"].collected is False
        # second sweep is a no-op, not a re-flag
        assert ledger.mark_collected(live_refs={"live"}) == 0


class TestIndexes:
    def test_rows_for_output_and_outputs(self):
        ledger = LineageLedger()
        ledger.append(make_record())
        ledger.append(make_record(stage="extract", output_ref="out-2"))
        ledger.append(make_record(stage="model", output_ref="out-3"))
        assert len(ledger.rows_for_output("out-1")) == 1
        assert ledger.outputs() == {"out-1", "out-2", "out-3"}

    def test_payload_round_trip(self):
        ledger = LineageLedger()
        row = ledger.append(make_record())
        ledger.annotate_commit("c1", "master", [row])
        ledger.append(make_record(stage="extract", output_ref="out-2"))
        rows = [encode(record) for record in ledger.records()]
        restored = LineageLedger()
        assert restored.import_entries(decode(LineageRecord, r) for r in rows) == 2
        assert restored.records() == ledger.records()
        # importing the same rows again imports nothing (idempotent)
        assert restored.import_entries(decode(LineageRecord, r) for r in rows) == 0


class TestRegistryMirror:
    def test_bind_registry_counts_arrivals(self):
        registry = MetricsRegistry()
        ledger = LineageLedger().bind_registry(registry, tenant="ana", repo="r1")
        ledger.append(make_record())
        ledger.import_record(make_record(stage="extract", output_ref="out-2"))
        assert (
            registry.value("repro_lineage_records_total", tenant="ana", repo="r1")
            == 2.0
        )

    def test_null_registry_unbinds(self):
        ledger = LineageLedger().bind_registry(NULL_REGISTRY)
        ledger.append(make_record())  # must not raise, mirrors nowhere
        assert len(ledger) == 1


class TestViaValues:
    @pytest.mark.parametrize("via", [EXECUTED, REUSED])
    def test_constants(self, via):
        assert via in ("executed", "reused")
