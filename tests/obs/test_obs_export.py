"""Span export: policy keep/drop, sinks, and the bounded exporter."""

import json

import pytest

from repro.obs.export import (
    ExportPolicy,
    FileSpanSink,
    HttpSpanSink,
    SpanExporter,
    sink_for,
)
from repro.obs.slowops import SlowOpCapture
from repro.obs.trace import Tracer


def span_dict(**overrides):
    span = {
        "trace_id": "ab" * 8,
        "span_id": "cd" * 8,
        "parent_id": None,
        "name": "server.push",
        "start": 100.0,
        "seconds": 0.01,
        "status": "ok",
        "sampled": True,
        "attrs": {},
    }
    span.update(overrides)
    return span


class TestExportPolicy:
    def test_sampled_span_kept(self):
        assert ExportPolicy().keep(span_dict(sampled=True))

    def test_unsampled_span_dropped(self):
        assert not ExportPolicy().keep(span_dict(sampled=False))

    def test_error_span_kept_despite_sampling(self):
        policy = ExportPolicy()
        assert policy.keep(span_dict(sampled=False, status="error"))

    def test_slow_span_kept_despite_sampling(self):
        policy = ExportPolicy(lambda op: 0.5)
        assert policy.keep(span_dict(sampled=False, seconds=0.6))
        assert not policy.keep(span_dict(sampled=False, seconds=0.4))

    def test_per_op_threshold_beats_default(self):
        thresholds = {"push": 2.0}
        policy = ExportPolicy(lambda op: thresholds.get(op, 0.1))
        pushy = span_dict(sampled=False, seconds=1.0, attrs={"op": "push"})
        assert not policy.keep(pushy)  # under the push budget
        other = span_dict(sampled=False, seconds=1.0, attrs={"op": "fetch"})
        assert policy.keep(other)  # over the default

    def test_op_falls_back_to_span_name(self):
        policy = ExportPolicy({"server.push": 0.001}.get)
        named = span_dict(sampled=False, seconds=0.01, name="server.push")
        assert policy.keep(named)

    def test_slow_op_thresholds_are_the_export_thresholds(self):
        policy = ExportPolicy(SlowOpCapture(default_seconds=0.5).threshold_for)
        push = {"op": "push"}  # the op table's 5 s
        assert not policy.keep(span_dict(sampled=False, seconds=4.0, attrs=push))
        assert policy.keep(span_dict(sampled=False, seconds=5.0, attrs=push))
        assert policy.keep(span_dict(sampled=False, seconds=0.6, name="lock.write"))

    def test_no_threshold_means_no_latency_override(self):
        for policy in (ExportPolicy(), ExportPolicy(lambda op: None)):
            assert not policy.keep(span_dict(sampled=False, seconds=9999.0))


class TestSinks:
    def test_file_sink_appends_json_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = FileSpanSink(str(path))
        sink([span_dict(name="a"), span_dict(name="b")])
        sink([span_dict(name="c")])
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b", "c"]

    def test_sink_for_dispatches_on_scheme(self, tmp_path):
        assert isinstance(sink_for("http://collector:4318/v1"), HttpSpanSink)
        assert isinstance(sink_for("https://collector/v1"), HttpSpanSink)
        assert isinstance(sink_for(str(tmp_path / "out.jsonl")), FileSpanSink)

    def test_http_sink_rejects_non_http_url(self):
        with pytest.raises(ValueError):
            HttpSpanSink("ftp://collector")
        with pytest.raises(ValueError):
            HttpSpanSink("http://")


class TestSpanExporter:
    def test_flush_ships_queued_spans(self):
        batches = []
        exporter = SpanExporter(batches.append)
        exporter.export(span_dict(name="a"))
        exporter.export(span_dict(name="b"))
        assert exporter.flush() == 2
        assert [s["name"] for s in batches[0]] == ["a", "b"]
        assert exporter.snapshot()["exported"] == 2
        assert exporter.snapshot()["queued"] == 0

    def test_policy_filters_before_queueing(self):
        batches = []
        exporter = SpanExporter(batches.append)
        exporter.export(span_dict(sampled=False))
        assert exporter.flush() == 0
        assert batches == []
        assert exporter.snapshot()["filtered"] == 1

    def test_bounded_queue_drops_oldest(self):
        batches = []
        exporter = SpanExporter(batches.append, max_queue=2)
        for name in ("a", "b", "c"):
            exporter.export(span_dict(name=name))
        exporter.flush()
        assert [s["name"] for s in batches[0]] == ["b", "c"]
        assert exporter.snapshot()["dropped"] == 1

    def test_broken_sink_counts_batch_dropped(self):
        def broken(batch):
            raise OSError("collector down")

        exporter = SpanExporter(broken)
        exporter.export(span_dict())
        assert exporter.flush() == 0
        snapshot = exporter.snapshot()
        assert snapshot["dropped"] == 1
        assert snapshot["exported"] == 0
        # The exporter keeps serving after the failure.
        exporter.export(span_dict())
        assert exporter.snapshot()["queued"] == 1

    def test_background_thread_lifecycle(self):
        batches = []
        exporter = SpanExporter(batches.append, flush_interval=0.01)
        exporter.start()
        assert exporter.start() is exporter  # idempotent
        exporter.export(span_dict(name="bg"))
        exporter.stop()  # stop() flushes what is queued
        assert any(s["name"] == "bg" for batch in batches for s in batch)

    def test_wired_as_tracer_on_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = SpanExporter(FileSpanSink(str(path)))
        tracer = Tracer(on_span=exporter.export)
        with tracer.span("client.push", op="push"):
            pass
        exporter.flush()
        (line,) = path.read_text().splitlines()
        exported = json.loads(line)
        assert exported["name"] == "client.push"
        assert exported["attrs"] == {"op": "push"}

    def test_sampling_decision_respected_end_to_end(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = SpanExporter(FileSpanSink(str(path)))
        tracer = Tracer(on_span=exporter.export, sample_rate=0.0)
        with tracer.span("client.push"):
            pass
        exporter.flush()
        assert not path.exists() or path.read_text() == ""
        assert exporter.snapshot()["filtered"] == 1
        # Errors punch through a zero sample rate.
        with pytest.raises(RuntimeError):
            with tracer.span("client.push"):
                raise RuntimeError("boom")
        exporter.flush()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["status"] == "error"
