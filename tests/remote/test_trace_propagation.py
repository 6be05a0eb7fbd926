"""Trace-context propagation over the wire (ISSUE satellite).

The contract under test: ``trace_ctx`` is schema-additive telemetry.
A legacy peer that never sends it gets a fresh root trace; a malformed
context is ignored, never a protocol error; the response cache ignores the key so traced and untraced peers share
entries; and continuity survives the hub evicting and reloading a
hosted repository.
"""

import pytest

from repro import MLCask
from repro.hub import RepositoryHub
from repro.obs.propagation import TRACE_CTX_KEY
from repro.obs.trace import Tracer
from repro.remote import LocalTransport, Remote, RepositoryServer
from repro.remote.protocol import decode_message, encode_message


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


class TestCacheSharing:
    def test_traced_and_untraced_peers_share_cache_entries(
        self, server_repo
    ):
        server = RepositoryServer(server_repo, cache_entries=8)
        transport = LocalTransport(server)
        context = {"trace_id": "ab" * 8, "span_id": "cd" * 8}
        # An untraced request and a traced one are one key: its second
        # offer stores the entry, and the next traced request hits it.
        plain = transport.call(encode_message({"op": "manifest"}))
        transport.call(encode_message({"op": "manifest", TRACE_CTX_KEY: context}))
        assert server.cache.hits == 0
        assert server.cache.snapshot()["entries"] == 1, (
            "a traced request must count as a repeat of the untraced one"
        )
        traced = transport.call(
            encode_message({"op": "manifest", TRACE_CTX_KEY: context})
        )
        assert server.cache.hits == 1
        assert traced == plain
        # And per-trace ids must not fragment the cache either.
        other = dict(context, trace_id="ef" * 8, span_id="01" * 8)
        transport.call(
            encode_message({"op": "manifest", TRACE_CTX_KEY: other})
        )
        assert server.cache.hits == 2


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
