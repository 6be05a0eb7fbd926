"""Tracer: context propagation, parenting, backdated records, bounds."""

import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Tracer


@pytest.fixture
def tracer():
    return Tracer()


class TestSpanTree:
    def test_nested_spans_share_a_trace(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = tracer.drain()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["parent_id"] == spans[1]["span_id"]

    def test_sibling_after_close_parents_to_root(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("first"):
                pass
            with tracer.span("second") as second:
                assert second.parent_id == root.span_id

    def test_separate_roots_get_separate_traces(self, tracer):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.drain()
        assert a["trace_id"] != b["trace_id"]
        assert a["parent_id"] is None and b["parent_id"] is None

    def test_current_tracks_the_open_span(self, tracer):
        assert tracer.current() is None
        with tracer.span("x") as span:
            assert tracer.current() is span
        assert tracer.current() is None

    def test_threads_do_not_inherit_each_others_spans(self, tracer):
        seen = {}

        def other():
            seen["current"] = tracer.current()
            with tracer.span("theirs") as s:
                seen["trace_id"] = s.trace_id

        with tracer.span("mine") as mine:
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert seen["current"] is None
        assert seen["trace_id"] != mine.trace_id


class TestSpanOutcome:
    def test_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("work"):
                raise RuntimeError("boom")
        (span,) = tracer.drain()
        assert span["status"] == "error"
        assert span["attrs"]["error"] == "RuntimeError: boom"

    def test_set_attaches_attributes(self, tracer):
        with tracer.span("work", op="push") as span:
            span.set(outcome="allowed")
        (finished,) = tracer.drain()
        assert finished["attrs"] == {"op": "push", "outcome": "allowed"}

    def test_set_on_a_finished_span_raises(self, tracer):
        # The buffer was handed a copy at __exit__: a late write could never be seen, so it is refused, not dropped.
        with tracer.span("work") as span:
            pass
        with pytest.raises(RuntimeError, match="already finished"):
            span.set(outcome="too late")
        (finished,) = tracer.drain()
        assert "outcome" not in finished["attrs"]

    def test_a_span_never_entered_is_inert(self, tracer):
        with tracer.span("outer") as outer:
            stray = tracer.span("stray", op="x")
            assert obs_trace.current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert stray.span_id is None and stray.seconds is None
        assert [s["name"] for s in tracer.drain()] == ["inner", "outer"]
        assert tracer.spans_recorded == 2

    def test_timing_fields_are_populated(self, tracer):
        with tracer.span("work"):
            pass
        (span,) = tracer.drain()
        assert span["seconds"] >= 0
        assert span["start"] > 0


class TestRecord:
    def test_record_backdates_a_child_of_the_current_span(self, tracer):
        with tracer.span("op") as op:
            tracer.record("lock.write", 0.25, mode="write")
        lock, outer = tracer.drain()
        assert lock["name"] == "lock.write"
        assert lock["parent_id"] == op.span_id
        assert lock["trace_id"] == op.trace_id
        assert lock["seconds"] == 0.25
        assert lock["start"] <= outer["start"] + outer["seconds"]

    def test_record_without_a_current_span_is_a_root(self, tracer):
        tracer.record("orphan", 0.1)
        (span,) = tracer.drain()
        assert span["parent_id"] is None
        assert span["trace_id"]


class TestBuffer:
    def test_buffer_is_bounded_newest_kept(self):
        tracer = Tracer(max_spans=3)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [s["name"] for s in tracer.finished()]
        assert names == ["s7", "s8", "s9"]
        assert tracer.spans_recorded == 10

    def test_drain_empties_finished_does_not(self, tracer):
        with tracer.span("x"):
            pass
        assert len(tracer.finished()) == 1
        assert len(tracer.finished()) == 1
        assert len(tracer.drain()) == 1
        assert tracer.finished() == []


class TestNullDefault:
    def test_default_is_null_until_installed(self):
        assert obs_trace.default_tracer() is NULL_TRACER

    def test_install_uninstall_round_trip(self):
        real = Tracer()
        try:
            assert obs_trace.install(real) is real
            assert obs_trace.default_tracer() is real
        finally:
            obs_trace.uninstall()
        assert obs_trace.default_tracer() is NULL_TRACER

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x", op="y") as span:
            assert span is NULL_SPAN
            assert span.set(a=1) is NULL_SPAN
        NULL_TRACER.record("x", 1.0)
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.finished() == []
