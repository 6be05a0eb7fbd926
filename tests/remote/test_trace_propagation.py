"""Trace-context propagation over the wire (ISSUE satellite).

The contract under test: ``trace_ctx`` is schema-additive telemetry.
A legacy peer that never sends it gets a fresh root trace; a malformed
context is ignored, never a protocol error; the head-based sampling
decision rides the context so both sides of the wire agree; the
response cache ignores the key so traced and untraced peers share
entries; and continuity survives the hub evicting and reloading a
hosted repository.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro import MLCask
from repro.hub import RepositoryHub, serve_hub
from repro.obs.profiler import SamplingProfiler
from repro.obs.propagation import TRACE_CTX_KEY
from repro.obs.trace import Tracer
from repro.remote import LocalTransport, Remote, RepositoryServer, serve
from repro.remote.protocol import decode_message, encode_message
from repro.workloads import ALL_WORKLOADS


def server_spans(tracer, name=None):
    spans = tracer.finished()
    if name is not None:
        spans = [s for s in spans if s["name"] == name]
    return spans


class TestLegacyAndMalformedPeers:
    def test_legacy_peer_gets_fresh_root_trace(self, server_repo):
        tracer = Tracer()
        server = RepositoryServer(server_repo, tracer=tracer)
        response = LocalTransport(server).call(
            encode_message({"op": "manifest"})
        )
        meta, _ = decode_message(response)
        assert "error" not in meta
        (span,) = server_spans(tracer, "server.manifest")
        assert span["parent_id"] is None  # a root, not an orphan child
        assert span["trace_id"]

    @pytest.mark.parametrize(
        "context",
        [
            "garbage",
            [],
            {},
            {"trace_id": "NOT-HEX", "span_id": "ab" * 8},
            {"trace_id": "ab" * 8, "span_id": 12345},
            {"trace_id": "ab" * 8, "span_id": "cd" * 8, "sampled": "yes"},
        ],
    )
    def test_malformed_trace_ctx_never_a_protocol_error(
        self, server_repo, context
    ):
        tracer = Tracer()
        server = RepositoryServer(server_repo, tracer=tracer)
        response = LocalTransport(server).call(
            encode_message({"op": "manifest", TRACE_CTX_KEY: context})
        )
        meta, _ = decode_message(response)
        assert "error" not in meta
        assert meta["refs"]  # the request was answered normally
        (span,) = server_spans(tracer, "server.manifest")
        assert span["parent_id"] is None  # fresh root, garbage ignored

    def test_wellformed_trace_ctx_adopted(self, server_repo):
        tracer = Tracer()
        server = RepositoryServer(server_repo, tracer=tracer)
        context = {"trace_id": "ab" * 8, "span_id": "cd" * 8}
        LocalTransport(server).call(
            encode_message({"op": "manifest", TRACE_CTX_KEY: context})
        )
        (span,) = server_spans(tracer, "server.manifest")
        assert span["trace_id"] == "ab" * 8
        assert span["parent_id"] == "cd" * 8


class TestTracedClient:
    def test_client_span_wraps_every_rpc(self, server_repo, workload):
        server_tracer = Tracer()
        server = RepositoryServer(server_repo, tracer=server_tracer)
        client_tracer = Tracer()
        client = MLCask(metric=workload.metric, seed=0)
        remote = Remote(
            client, LocalTransport(server), tracer=client_tracer
        )
        remote.pull(workload.name)
        client_side = client_tracer.finished()
        assert client_side, "traced client recorded no spans"
        assert all(s["name"].startswith("client.") for s in client_side)
        # One conversation, one trace: the in-process server spans share
        # the client's trace ids (the contextvar carries currency).
        trace_ids = {s["trace_id"] for s in client_side}
        assert len(trace_ids) >= 1
        joined = [
            s
            for s in server_tracer.finished()
            if s["trace_id"] in trace_ids
        ]
        assert any(s["name"] == "server.fetch" for s in joined)

    def test_untraced_client_puts_nothing_on_the_wire(self, server_repo):
        captured = []

        class Recording(LocalTransport):
            def call(self, request: bytes) -> bytes:
                captured.append(request)
                return super().call(request)

        server = RepositoryServer(server_repo)
        remote = Remote(None, Recording(server))
        remote.manifest()
        meta, _ = decode_message(captured[0])
        assert TRACE_CTX_KEY not in meta


class TestSamplingAcrossTheWire:
    def test_client_decision_wins_on_the_server(self, server_repo):
        # Client rate 0, server rate 1: the head decision is the
        # client's — every server span must carry sampled=False.
        server_tracer = Tracer(sample_rate=1.0)
        server = RepositoryServer(server_repo, tracer=server_tracer)
        client_tracer = Tracer(sample_rate=0.0)
        remote = Remote(
            None, LocalTransport(server), tracer=client_tracer
        )
        remote.manifest()
        client_side = client_tracer.finished()
        assert client_side and all(
            s["sampled"] is False for s in client_side
        )
        assert all(
            s["sampled"] is False
            for s in server_spans(server_tracer, "server.manifest")
        )

    def test_decision_rides_the_encoded_context(self, server_repo):
        # Same thing through raw bytes (the cross-process shape): the
        # propagated sampled=False beats the server's keep-everything.
        tracer = Tracer(sample_rate=1.0)
        server = RepositoryServer(server_repo, tracer=tracer)
        context = {
            "trace_id": "ab" * 8,
            "span_id": "cd" * 8,
            "sampled": False,
        }
        LocalTransport(server).call(
            encode_message({"op": "manifest", TRACE_CTX_KEY: context})
        )
        (span,) = server_spans(tracer, "server.manifest")
        assert span["sampled"] is False


class TestCacheSharing:
    def test_traced_and_untraced_peers_share_cache_entries(
        self, server_repo
    ):
        server = RepositoryServer(server_repo, cache_entries=8)
        transport = LocalTransport(server)
        plain = transport.call(encode_message({"op": "manifest"}))
        assert server.cache.hits == 0
        context = {"trace_id": "ab" * 8, "span_id": "cd" * 8}
        traced = transport.call(
            encode_message({"op": "manifest", TRACE_CTX_KEY: context})
        )
        assert server.cache.hits == 1, (
            "a traced request must hit the untraced request's cache entry"
        )
        assert traced == plain
        # And per-trace ids must not fragment the cache either.
        other = dict(context, trace_id="ef" * 8, span_id="01" * 8)
        transport.call(
            encode_message({"op": "manifest", TRACE_CTX_KEY: other})
        )
        assert server.cache.hits == 2


class TestTraceRPC:
    def test_trace_op_readout(self, server_repo, workload):
        server_tracer = Tracer()
        server = RepositoryServer(server_repo, tracer=server_tracer)
        client_tracer = Tracer()
        remote = Remote(
            None, LocalTransport(server), tracer=client_tracer
        )
        remote.manifest()
        # Summaries without a trace id...
        result = remote.trace()
        assert result["traces"]
        summary = result["traces"][0]
        assert summary["spans"] >= 1
        assert summary["errors"] == 0
        # ...then one trace's tree plus its critical path.
        trace_id = summary["trace_id"]
        detail = remote.trace(trace_id)
        assert all(s["trace_id"] == trace_id for s in detail["spans"])
        assert detail["critical_path"]["trace_id"] == trace_id
        assert detail["critical_path"]["bounded_by"]

    def test_trace_op_slow_flag_returns_capture_ring(self, server_repo):
        from repro.obs.slowops import SlowOpCapture

        slow_ops = SlowOpCapture(thresholds={"manifest": 0.0})
        server = RepositoryServer(
            server_repo, tracer=Tracer(), slow_ops=slow_ops
        )
        remote = Remote(None, LocalTransport(server))
        remote.manifest()  # over the zero budget by definition
        result = remote.trace(slow=True)
        assert result["slow"]
        assert result["slow"][0]["op"] == "manifest"
        assert result["slow"][0]["stacks"]


class TestHubAdoption:
    def test_server_span_descends_from_the_client_span_through_the_hub(self):
        # The hub endpoint's twin of test_wellformed_trace_ctx_adopted:
        # were handle_request to open hub.request without adopting the
        # propagated context, the walk below would end at a fresh root.
        hub = RepositoryHub(tracer=Tracer())
        hub.add_tenant("team0", tokens=["tok-0"])
        hub.create_repo("team0", "pipelines")
        context = {"trace_id": "ab" * 8, "span_id": "cd" * 8}
        response = hub.handle_request(
            "team0",
            "pipelines",
            "tok-0",
            encode_message({"op": "manifest", TRACE_CTX_KEY: context}),
        )
        assert "error" not in decode_message(response)[0]
        spans = {s["span_id"]: s for s in hub.tracer.finished()}
        (node,) = [s for s in spans.values() if s["name"] == "server.manifest"]
        assert node["trace_id"] == "ab" * 8
        chain = []
        while node is not None:
            chain.append(node["name"])
            parent_id = node["parent_id"]
            node = spans.get(parent_id)
        assert chain[-1] == "hub.request"
        assert parent_id == "cd" * 8  # the client's span, across the wire


class TestHubEvictReload:
    def test_propagation_survives_evict_and_reload(self, tmp_path):
        # max_loaded_repos=1: touching repo "b" evicts "a"; the traced
        # request that reloads "a" must still join the client's trace.
        hub = RepositoryHub(
            str(tmp_path), max_loaded_repos=1, tracer=Tracer()
        )
        hub.add_tenant("team0", tokens=["tok-0"])
        hub.create_repo("team0", "a")
        hub.create_repo("team0", "b")

        def traced_manifest(repo, trace_id):
            context = {"trace_id": trace_id, "span_id": "cd" * 8}
            response = hub.handle_request(
                "team0",
                repo,
                "tok-0",
                encode_message({"op": "manifest", TRACE_CTX_KEY: context}),
            )
            meta, _ = decode_message(response)
            assert "error" not in meta

        traced_manifest("a", "aa" * 8)  # loads a
        traced_manifest("b", "bb" * 8)  # loads b, evicts a
        assert ("team0", "a") not in hub._loaded
        traced_manifest("a", "ee" * 8)  # reloads a

        spans = hub.tracer.finished()
        reloaded = [s for s in spans if s["trace_id"] == "ee" * 8]
        names = {s["name"] for s in reloaded}
        # The whole handling chain joined the propagated trace — the
        # root request span AND the reloaded hosted server's op span.
        assert "hub.request" in names
        assert "server.manifest" in names
        roots = [s for s in reloaded if s["name"] == "hub.request"]
        assert all(s["parent_id"] == "cd" * 8 for s in roots)


class TestDebugEndpoints:
    def _get(self, url, token=None):
        request = urllib.request.Request(url)
        if token is not None:
            request.add_header("Authorization", f"Bearer {token}")
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())

    def test_plain_server_profile_404_without_profiler(self, server_repo):
        import threading

        server = serve(server_repo, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(f"{server.url}/debug/profile")
            assert excinfo.value.code == 404
            # /debug/slow answers out of the box (empty ring).
            status, body = self._get(f"{server.url}/debug/slow")
            assert status == 200
            assert body == {"slow": []}
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_hub_debug_gated_by_tenant_token(self, workload):
        import threading

        hub = RepositoryHub(tracer=Tracer())
        hub.add_tenant("team0", tokens=["tok-0"])
        hub.create_repo("team0", "pipelines")
        profiler = SamplingProfiler(interval=0.005).start()
        server = serve_hub(hub, port=0, profiler=profiler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(f"{server.url}/debug/profile")
            assert excinfo.value.code == 403
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(f"{server.url}/debug/profile", token="wrong")
            assert excinfo.value.code == 403
            status, body = self._get(
                f"{server.url}/debug/profile", token="tok-0"
            )
            assert status == 200
            assert body["profile"]["running"] is True
            assert "folded" in body
            status, body = self._get(
                f"{server.url}/debug/slow", token="tok-0"
            )
            assert status == 200
            assert body == {"slow": []}
        finally:
            profiler.stop()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
