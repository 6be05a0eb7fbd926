"""Observability rules over seeded metric/span violations."""


MISNAMED_METRIC = """\
    class Stats:
        def __init__(self, registry):
            self.requests = registry.counter(
                "request_count",  # MARK bad name
                "Requests handled",
            )
"""


class TestOB001Naming:
    def test_missing_prefix_and_total(self, tree, line_of):
        source = tree.write("stats.py", MISNAMED_METRIC)
        findings = tree.findings("OB001")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.line == line_of(source, "MARK bad name")
        assert "repro_" in finding.message
        assert "_total" in finding.message

    def test_gauge_with_total_suffix(self, tree):
        tree.write(
            "stats.py",
            """\
            def bind(registry):
                return registry.gauge("repro_workers_total", "Live workers")
            """,
        )
        findings = tree.findings("OB001")
        assert len(findings) == 1
        assert "only counters" in findings[0].message

    def test_reserved_suffix(self, tree):
        tree.write(
            "stats.py",
            """\
            def bind(registry):
                return registry.histogram("repro_latency_bucket", "Latency")
            """,
        )
        findings = tree.findings("OB001")
        assert len(findings) == 1
        assert "reserved" in findings[0].message

    def test_conforming_names_pass(self, tree):
        tree.write(
            "stats.py",
            """\
            def bind(registry):
                registry.counter("repro_requests_total", "Requests", ("op",))
                registry.gauge("repro_queue_depth", "Depth")
                registry.histogram("repro_request_seconds", "Latency")
            """,
        )
        assert tree.findings("OB001") == []

    def test_suppression_silences(self, tree):
        tree.write(
            "stats.py",
            MISNAMED_METRIC.replace(
                '"request_count",  # MARK bad name',
                '"request_count",  # repro-lint: disable=OB001 - legacy name',
            ),
        )
        from repro.analysis.report import run_lint

        result = run_lint(tree.root)
        assert result.findings == []
        assert result.suppressed == 1


class TestOB002Conflicts:
    def test_kind_conflict_across_modules(self, tree):
        tree.write(
            "a.py",
            """\
            def bind(registry):
                return registry.counter("repro_things_total", "Things")
            """,
        )
        source = tree.write(
            "b.py",
            """\
            def bind(registry):
                return registry.gauge("repro_things_total", "Things")  # MARK conflict
            """,
        )
        findings = tree.findings("OB002")
        assert len(findings) == 1
        assert findings[0].path.endswith("b.py")
        assert "declared as counter" in findings[0].message
        assert source  # fixture written

    def test_label_conflict(self, tree):
        tree.write(
            "a.py",
            """\
            def bind(registry):
                registry.counter("repro_ops_total", "Ops", ("op",))
                registry.counter("repro_ops_total", "Ops", ("op", "tenant"))
            """,
        )
        findings = tree.findings("OB002")
        assert len(findings) == 1
        assert "labels" in findings[0].message

    def test_identical_redeclaration_is_fine(self, tree):
        # The registry returns the existing family for an identical
        # signature — that is the supported idiom, not a conflict.
        tree.write(
            "a.py",
            """\
            def bind(registry):
                registry.counter("repro_ops_total", "Ops", ("op",))
                registry.counter("repro_ops_total", "Ops", ("op",))
            """,
        )
        assert tree.findings("OB002") == []


class TestOB003Spans:
    def test_unentered_span(self, tree, line_of):
        source = tree.write(
            "traced.py",
            """\
            def handle(tracer, payload):
                span = tracer.span("handle", op="x")  # MARK leaked span
                return payload
            """,
        )
        findings = tree.findings("OB003")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "MARK leaked span")

    def test_with_entered_span_is_fine(self, tree):
        tree.write(
            "traced.py",
            """\
            def handle(tracer, payload):
                with tracer.span("handle", op="x"):
                    return payload
            """,
        )
        assert tree.findings("OB003") == []

    def test_variable_entered_span_is_fine(self, tree):
        tree.write(
            "traced.py",
            """\
            def handle(tracer, payload):
                span = tracer.span("handle", op="x")
                with span:
                    return payload
            """,
        )
        assert tree.findings("OB003") == []


COMPLIANT_LINEAGE = """\
    from repro.provenance import LineageRecord

    def mint(report):
        return LineageRecord(
            checkpoint_key="k",
            stage="clean",
            pipeline="toy",
            component_id="toy.clean@master@0.0",
            component_fingerprint="fp",
            component_version="master@0.0",
            params_digest="pd",
            input_refs=(),
            output_ref="out",
            seed=0,
            trace_id="",
            span_id="",
            tenant="",
            via="executed",
        )
"""


class TestOB004LineageSchema:
    def test_full_keyword_construction_passes(self, tree):
        tree.write("prov.py", COMPLIANT_LINEAGE)
        assert tree.findings("OB004") == []

    def test_dropped_field_flagged(self, tree, line_of):
        source = tree.write(
            "prov.py",
            COMPLIANT_LINEAGE.replace(
                '            trace_id="",\n            span_id="",\n', ""
            ).replace(
                "return LineageRecord(", "return LineageRecord(  # MARK partial"
            ),
        )
        findings = tree.findings("OB004")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "MARK partial")
        assert "trace_id" in findings[0].message
        assert "span_id" in findings[0].message

    def test_positional_construction_flagged(self, tree):
        tree.write(
            "prov.py",
            """\
            from repro.provenance import LineageRecord

            def mint():
                return LineageRecord("k", "clean", "toy")
            """,
        )
        findings = tree.findings("OB004")
        assert len(findings) == 1
        assert "keyword" in findings[0].message

    def test_codec_star_kwargs_call_is_skipped(self, tree):
        # The codec rebuilds records from deserialized dicts; a **kwargs
        # call site cannot be field-checked statically and is exempt.
        tree.write(
            "codec.py",
            """\
            from repro.provenance import LineageRecord

            def decode(entry):
                return LineageRecord(**entry)
            """,
        )
        assert tree.findings("OB004") == []


UNADOPTED_HANDLER = """\
    from repro.remote.protocol import decode_message


    class Server:
        def handle_bytes(self, payload):
            meta, blobs = decode_message(payload)
            with self.tracer.span("server.op"):  # MARK unadopted
                return self.dispatch(meta, blobs)
"""

ADOPTED_HANDLER = """\
    from repro.obs import propagation
    from repro.remote.protocol import decode_message


    class Server:
        def handle_bytes(self, payload):
            meta, blobs = decode_message(payload)
            inherited = propagation.parse_trace_context(meta)
            with propagation.adopt_remote_context(inherited):
                with self.tracer.span("server.op"):
                    return self.dispatch(meta, blobs)
"""


class TestOB005TraceContinuity:
    def test_handler_span_without_adoption_flagged(self, tree, line_of):
        source = tree.write("remote/server.py", UNADOPTED_HANDLER)
        findings = tree.findings("OB005")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "MARK unadopted")
        assert "adopting" in findings[0].message

    def test_hub_handler_without_adoption_flagged(self, tree):
        tree.write("hub/hub.py", UNADOPTED_HANDLER)
        findings = tree.findings("OB005")
        assert len(findings) == 1

    def test_adopting_handler_passes(self, tree):
        tree.write("remote/server.py", ADOPTED_HANDLER)
        assert tree.findings("OB005") == []

    def test_non_handler_file_exempt(self, tree):
        # Client-side spans wrap *encoded* requests; only files that
        # decode wire payloads can (and must) adopt a peer's context.
        tree.write("remote/client.py", UNADOPTED_HANDLER)
        assert tree.findings("OB005") == []

    def test_span_without_decode_exempt(self, tree):
        tree.write(
            "hub/hub.py",
            """\
            class Hub:
                def admitted(self, meta):
                    with self.tracer.span("hub.request"):
                        return self.route(meta)
            """,
        )
        assert tree.findings("OB005") == []

    def test_attr_write_after_span_close_flagged(self, tree, line_of):
        source = tree.write(
            "worker.py",
            """\
            def work(tracer):
                with tracer.span("job") as span:
                    result = run()
                span.set(outcome="done")  # MARK late write
                return result
            """,
        )
        findings = tree.findings("OB005")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "MARK late write")
        assert "after the span closed" in findings[0].message

    def test_attr_write_inside_span_passes(self, tree):
        tree.write(
            "worker.py",
            """\
            def work(tracer):
                with tracer.span("job") as span:
                    span.set(outcome="done")
                    return run()
            """,
        )
        assert tree.findings("OB005") == []

    def test_late_write_in_nested_block_flagged(self, tree):
        tree.write(
            "worker.py",
            """\
            def work(tracer, ok):
                with tracer.span("job") as span:
                    result = run()
                if ok:
                    span.set(outcome="done")
                return result
            """,
        )
        findings = tree.findings("OB005")
        assert len(findings) == 1


OP_TABLE_MODULE = """\
OP_TABLE = {
    spec.name: spec
    for spec in (
        OpSpec("manifest", _no_fields, p99_seconds=0.5),
        OpSpec("fetch", _no_fields, p99_seconds=2.0),
        OpSpec("health", _no_fields, p99_seconds=0.5),
    )
}
"""

PROTOCOL_MODULE = """\
from ..ops import OP_TABLE

OPS = tuple(OP_TABLE)
"""


class TestOB006HistogramCoverage:
    def server(self, children: str) -> str:
        return (
            "from .protocol import OPS\n"
            "\n"
            "class Server:\n"
            "    def __init__(self, registry):\n"
            "        seconds = registry.histogram(\n"
            '            "repro_request_seconds", "latency",\n'
            '            ("op", "tenant"),\n'
            "        )\n"
            f"        {children}\n"
        )

    def write_protocol(self, tree) -> None:
        tree.write("ops.py", OP_TABLE_MODULE)
        tree.write("remote/protocol.py", PROTOCOL_MODULE)

    def test_ops_comprehension_passes(self, tree):
        self.write_protocol(tree)
        tree.write(
            "remote/server.py",
            self.server(
                "self._m = {op: seconds.labels(op=op) for op in OPS}"
            ),
        )
        assert tree.findings("OB006") == []

    def test_starred_alias_passes(self, tree):
        self.write_protocol(tree)
        tree.write(
            "remote/server.py",
            self.server(
                'tracked = (*OPS, "invalid")\n'
                "        self._m = "
                "{op: seconds.labels(op=op) for op in tracked}"
            ),
        )
        assert tree.findings("OB006") == []

    def test_hand_listed_subset_flagged(self, tree):
        # Children resolved from a hand-maintained literal: the next op
        # added to OPS would serve without sliding-window percentiles.
        self.write_protocol(tree)
        tree.write(
            "remote/server.py",
            self.server(
                'self._m = {op: seconds.labels(op=op) '
                'for op in ("manifest", "fetch")}'
            ),
        )
        findings = tree.findings("OB006")
        assert len(findings) == 1
        assert "iterating the protocol OPS table" in findings[0].message

    def test_silent_without_an_op_table(self, tree):
        # Same discovery rule as the PT pack: no OP_TABLE, no opinion.
        tree.write(
            "remote/server.py",
            self.server(
                'self._m = {op: seconds.labels(op=op) '
                'for op in ("manifest", "fetch")}'
            ),
        )
        assert tree.findings("OB006") == []

    def test_histogram_without_op_label_exempt(self, tree):
        self.write_protocol(tree)
        tree.write(
            "remote/server.py",
            """\
            class Server:
                def __init__(self, registry):
                    waits = registry.histogram(
                        "repro_lock_wait_seconds", "waits", ("mode",)
                    )
                    self._m = {m: waits.labels(mode=m) for m in ("r", "w")}
            """,
        )
        assert tree.findings("OB006") == []
