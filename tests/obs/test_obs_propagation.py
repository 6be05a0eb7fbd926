"""Trace-context propagation: inject/parse/adopt edge cases.

The wire contract (docs/observability.md): ``trace_ctx`` is
schema-additive telemetry — absent means a legacy peer, malformed means
noise to be ignored, and adoption installs the remote parent only when
no local span is already current.
"""

import pytest

from repro.obs.propagation import (
    TRACE_CTX_KEY,
    RemoteSpanContext,
    adopt_remote_context,
    current_trace_context,
    inject,
    parse_trace_context,
)
from repro.obs.trace import Tracer


class TestCurrentTraceContext:
    def test_none_when_untraced(self):
        assert current_trace_context() is None

    def test_wire_form_of_live_span(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            context = current_trace_context()
        assert context == {"trace_id": span.trace_id, "span_id": span.span_id}

    def test_sees_adopted_remote_context(self):
        # A relaying hop forwards the original trace, not a fresh one.
        remote = RemoteSpanContext("ab" * 8, "cd" * 8)
        with adopt_remote_context(remote):
            context = current_trace_context()
        assert context == {"trace_id": "ab" * 8, "span_id": "cd" * 8}

    def test_none_again_after_span_closes(self):
        tracer = Tracer()
        with tracer.span("op"):
            pass
        assert current_trace_context() is None


class TestInject:
    def test_untraced_meta_unchanged_same_object(self):
        meta = {"op": "manifest"}
        assert inject(meta) is meta

    def test_traced_meta_copied_and_stamped(self):
        tracer = Tracer()
        meta = {"op": "push"}
        with tracer.span("client.push") as span:
            stamped = inject(meta)
        assert stamped is not meta
        assert TRACE_CTX_KEY not in meta
        assert stamped[TRACE_CTX_KEY]["trace_id"] == span.trace_id
        assert stamped[TRACE_CTX_KEY]["span_id"] == span.span_id
        assert stamped["op"] == "push"


class TestParseTraceContext:
    def test_absent_key_means_legacy_peer(self):
        assert parse_trace_context({"op": "push"}) is None

    def test_non_dict_meta(self):
        assert parse_trace_context(None) is None
        assert parse_trace_context("meta") is None
        assert parse_trace_context(42) is None

    @pytest.mark.parametrize(
        "context",
        [
            "not-a-dict",
            [],
            42,
            {},
            {"trace_id": "ab" * 8},  # span_id missing
            {"span_id": "ab" * 8},  # trace_id missing
            {"trace_id": None, "span_id": "ab" * 8},
            {"trace_id": 123, "span_id": "ab" * 8},
            {"trace_id": "XYZ", "span_id": "ab" * 8},  # not hex
            {"trace_id": "AB" * 8, "span_id": "ab" * 8},  # uppercase
            {"trace_id": "", "span_id": "ab" * 8},  # empty
            {"trace_id": "a" * 65, "span_id": "ab" * 8},  # too long
            {"trace_id": "ab" * 8, "span_id": "ab cd"},
        ],
    )
    def test_malformed_context_ignored_never_raises(self, context):
        assert parse_trace_context({TRACE_CTX_KEY: context}) is None

    def test_valid_context_round_trips(self):
        tracer = Tracer()
        with tracer.span("client.push") as span:
            stamped = inject({"op": "push"})
        parsed = parse_trace_context(stamped)
        assert parsed is not None
        assert parsed.trace_id == span.trace_id
        assert parsed.span_id == span.span_id

    def test_id_length_bounds(self):
        for length in (1, 16, 64):
            meta = {
                TRACE_CTX_KEY: {"trace_id": "a" * length, "span_id": "b"}
            }
            assert parse_trace_context(meta) is not None

    @pytest.mark.parametrize("sampled", [False, "yes", 1])
    def test_a_peers_sampled_key_is_ignored(self, sampled):
        # Older clients stamp a sampling flag; nothing reads it any more,
        # so it neither joins nor breaks the trace.
        meta = {
            TRACE_CTX_KEY: {
                "trace_id": "ab" * 8,
                "span_id": "cd" * 8,
                "sampled": sampled,
            }
        }
        parsed = parse_trace_context(meta)
        assert (parsed.trace_id, parsed.span_id) == ("ab" * 8, "cd" * 8)


class TestAdoptRemoteContext:
    def test_none_context_is_noop(self):
        with adopt_remote_context(None) as adopted:
            assert adopted is False
            assert current_trace_context() is None

    def test_adopted_parent_roots_new_spans(self):
        tracer = Tracer()
        remote = RemoteSpanContext("ab" * 8, "cd" * 8)
        with adopt_remote_context(remote) as adopted:
            assert adopted is True
            with tracer.span("server.push") as span:
                pass
        assert span.trace_id == "ab" * 8
        assert span.parent_id == "cd" * 8

    def test_local_span_current_wins(self):
        # The in-process transport case: the client's own span is the
        # right parent, adoption must not shadow it.
        tracer = Tracer()
        remote = RemoteSpanContext("ab" * 8, "cd" * 8)
        with tracer.span("client.push") as client_span:
            with adopt_remote_context(remote) as adopted:
                assert adopted is False
                with tracer.span("server.push") as server_span:
                    pass
        assert server_span.trace_id == client_span.trace_id
        assert server_span.parent_id == client_span.span_id

    def test_context_restored_after_adoption(self):
        remote = RemoteSpanContext("ab" * 8, "cd" * 8)
        with adopt_remote_context(remote):
            pass
        assert current_trace_context() is None

    def test_restored_even_when_body_raises(self):
        remote = RemoteSpanContext("ab" * 8, "cd" * 8)
        with pytest.raises(RuntimeError):
            with adopt_remote_context(remote):
                raise RuntimeError("boom")
        assert current_trace_context() is None
