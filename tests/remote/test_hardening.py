"""Server hardening: malformed requests get typed errors, never dead threads.

Regression tests for the failure mode where a malformed push (e.g. a ref
update missing ``"new"``) escaped ``handle_bytes`` as a raw ``KeyError``,
killing the HTTP handler thread so the client saw a dropped connection.
Every request here must come back as a *typed* error response — and the
server must keep serving afterwards.
"""

import re
import socket
import threading
import urllib.parse

import pytest

from repro.errors import (
    RemoteError,
    RemoteProtocolError,
    TransportError,
)
from repro.remote import (
    HttpTransport,
    LocalTransport,
    RepositoryServer,
    clone_repository,
    encode_message,
    serve,
)
from repro.hub import RepositoryHub, serve_hub
from repro.remote.protocol import decode_message, raise_remote_error
from repro.remote.server import validate_request


def call_raw(transport, meta, blobs=None):
    """Send a hand-built request; re-raise any typed error like a client."""
    response = transport.call(encode_message(meta, blobs))
    meta_out, blobs_out = decode_message(response)
    raise_remote_error(meta_out)
    return meta_out, blobs_out


def assert_still_serving(transport):
    meta, _ = call_raw(transport, {"op": "manifest"})
    assert "refs" in meta


class TestMalformedRequests:
    def test_garbage_bytes_yield_typed_error(self, transport):
        response = transport.call(b"\x00\x01definitely not a frame")
        meta, _ = decode_message(response)
        assert meta["error"]["type"] == "RemoteProtocolError"
        assert_still_serving(transport)

    def test_truncated_frame_yields_typed_error(self, transport):
        whole = encode_message({"op": "manifest"})
        response = transport.call(whole[: len(whole) - 3])
        meta, _ = decode_message(response)
        assert meta["error"]["type"] == "RemoteProtocolError"
        assert_still_serving(transport)

    def test_unknown_op_rejected(self, transport):
        with pytest.raises(RemoteProtocolError, match="unknown operation"):
            call_raw(transport, {"op": "steal_chunks"})
        assert_still_serving(transport)

    def test_push_ref_update_missing_new_is_typed_not_keyerror(
        self, transport, server_repo, workload
    ):
        """The original bug: ``update["new"]`` raised KeyError server-side."""
        old_head = server_repo.branches.head(workload.name, "master")
        with pytest.raises(RemoteProtocolError, match="'new'"):
            call_raw(
                transport,
                {
                    "op": "push",
                    "refs": {workload.name: {"master": {"old": old_head}}},
                },
            )
        # Nothing moved, and the server still answers.
        assert server_repo.branches.head(workload.name, "master") == old_head
        assert_still_serving(transport)

    @pytest.mark.parametrize(
        "meta",
        [
            {"op": "push", "refs": ["not", "a", "dict"]},
            {"op": "push", "refs": {"p": {"master": "just-a-string"}}},
            {"op": "push", "refs": {"p": {"master": {"new": ""}}}},
            {"op": "push", "refs": {"p": {"master": {"new": "x", "old": 42}}}},
            {"op": "push", "commits": [{"sequence": 0}]},
            {"op": "push", "commits": [{"commit_id": "c", "sequence": "zero"}]},
            {"op": "push", "commits": ["not-a-dict"]},
            {"op": "push", "recipes": "nope"},
            {"op": "push", "records": [17]},
            {"op": "push", "specs": []},
            {"op": "push", "chunk_digests": [1, 2]},
            {"op": "fetch", "want": "everything"},
            {"op": "fetch", "want": {"p": "master"}},
            {"op": "fetch", "have_commits": [None]},
            {"op": "known_commits", "ids": "abc"},
            {"op": "missing_chunks", "digests": [42]},
            {"op": "get_chunks", "digests": {}},
            {"op": "get_chunks", "digests": [], "max_bytes": -5},
            {"op": "get_chunks", "digests": [], "max_bytes": True},
            {"op": "put_chunks", "digests": ["d0", "d1"]},  # no blobs
        ],
    )
    def test_bad_schema_rejected_up_front(self, transport, meta):
        with pytest.raises(RemoteProtocolError):
            call_raw(transport, meta)
        assert_still_serving(transport)

    def test_push_chunk_manifest_mismatch_is_typed(self, transport):
        with pytest.raises(RemoteProtocolError, match="digests but"):
            call_raw(
                transport,
                {"op": "push", "chunk_digests": ["d0", "d1"]},
                [b"only-one-blob"],
            )
        assert_still_serving(transport)

    def test_push_with_unbacked_recipe_rejected_before_import(
        self, transport, server_repo, workload
    ):
        """A schema-valid push whose recipe references chunks neither in
        the pack nor on the server must be rejected, or every later fetch
        of that branch would advertise unservable content."""
        old_head = server_repo.branches.head(workload.name, "master")
        with pytest.raises(RemoteProtocolError, match="neither included"):
            call_raw(
                transport,
                {
                    "op": "push",
                    "commits": [],
                    "recipes": [
                        {"blob": "b" * 64, "chunks": ["f" * 64], "size": 10}
                    ],
                    "records": [],
                    "chunk_digests": [],
                    "refs": {},
                },
            )
        # The poisoned recipe never landed: fetches stay fully servable.
        for recipe in server_repo.objects.recipes():
            for digest in recipe.chunk_digests:
                assert server_repo.objects.chunks.contains(digest)
        assert server_repo.branches.head(workload.name, "master") == old_head
        assert_still_serving(transport)

    @pytest.mark.parametrize(
        "recipe",
        [
            {"chunks": ["c" * 64], "size": 1},
            {"blob": "b" * 64, "size": 1},
            {"blob": "b" * 64, "chunks": "not-a-list", "size": 1},
            {"blob": "b" * 64, "chunks": [], "size": "big"},
        ],
    )
    def test_malformed_recipe_rejected_up_front(self, transport, recipe):
        with pytest.raises(RemoteProtocolError, match="recipe"):
            call_raw(transport, {"op": "push", "recipes": [recipe]})
        assert_still_serving(transport)

    def test_failed_integrity_push_leaves_no_orphan_commits(
        self, transport, server_repo, workload
    ):
        """Commits must not graft before their content verifies: orphans
        would let a retry fast-forward the ref onto a commit whose
        recipes/chunks the server never stored."""
        from repro.remote import clone_repository

        clone = clone_repository(transport, registry=server_repo.registry)
        commit, _ = clone.commit(
            workload.name, {"model": workload.model_version(2)}, message="new"
        )
        chunks = clone.objects.chunks._chunks
        victim = server_repo.objects.chunks.missing(list(chunks))[0]
        original = chunks[victim]
        chunks[victim] = original + b"tampered"
        with pytest.raises(RemoteError, match="integrity"):
            clone.remote("origin").push(workload.name, "master")
        # No orphan landed; the repaired retry pushes the full pack.
        assert commit.commit_id not in server_repo.graph
        chunks[victim] = original
        result = clone.remote("origin").push(workload.name, "master")
        assert result.commits_sent == 1
        assert server_repo.branches.head(workload.name, "master") == commit.commit_id
        head = server_repo.head_commit(workload.name)
        for ref in head.stage_outputs.values():
            server_repo.objects.get(ref)

    def test_unexpected_internal_error_is_contained(self, server_repo):
        server = RepositoryServer(server_repo)
        transport = LocalTransport(server)

        def explode(meta, blobs):
            raise RuntimeError("boom")

        server._op_manifest = explode
        with pytest.raises(RemoteProtocolError, match="internal server error"):
            call_raw(transport, {"op": "manifest"})
        del server._op_manifest
        assert_still_serving(transport)

    def test_validate_request_accepts_wellformed_push(self):
        validate_request(
            "push",
            {
                "commits": [{"commit_id": "c", "sequence": 0}],
                "specs": {},
                "recipes": [],
                "records": [],
                "chunk_digests": ["d"],
                "refs": {"p": {"master": {"old": None, "new": "c"}}},
            },
            [b"blob"],
        )


def responses(received: bytes) -> list[tuple[int, bytes]]:
    """Status and head of each HTTP response in ``received``, which must
    hold whole responses and nothing else."""
    parsed = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 "), received
        length = int(re.search(rb"Content-Length: (\d+)", head)[1])
        assert len(rest) >= length, received
        parsed.append((int(head.split()[1]), head))
        received = rest[length:]
    return parsed


class Endpoint:
    """One endpoint served over a real socket: the HTTP server, the RPC
    URL and bearer token a client uses, and the name of the method on
    ``server.endpoint`` that every RPC is dispatched to."""

    def __init__(self, server, url, token, dispatch):
        self.server, self.url, self.token, self.dispatch = server, url, token, dispatch

    def transport(self):
        return HttpTransport(self.url, token=self.token)

    def raw(self, request: bytes) -> tuple[bytes, int]:
        """Send ``request`` on a fresh socket and nothing after it; return
        everything the server wrote until it closed, and how many
        requests it counted."""
        host, port = self.server.server_address[:2]
        before = self.server.endpoint.requests_handled
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        return received, self.server.endpoint.requests_handled - before

    def head(self, extra: str = "") -> bytes:
        """The request line and headers of a POST to the RPC path."""
        path = urllib.parse.urlsplit(self.url).path or "/"
        auth = f"Authorization: Bearer {self.token}\r\n" if self.token else ""
        return (
            f"POST {path.rstrip('/')}/rpc HTTP/1.1\r\nHost: x\r\n{auth}{extra}\r\n"
        ).encode()


@pytest.fixture(params=["serve", "serve_hub"])
def start_endpoint(request, server_repo, workload):
    """Start ``serve(server_repo)``, or ``serve_hub`` over a hub holding
    the same history under ``ana/proj``, with the given serve options."""
    started = []

    def start(**options):
        if request.param == "serve":
            server = serve(server_repo, **options)
            endpoint = Endpoint(server, server.url, None, "handle_bytes")
        else:
            hub = RepositoryHub()
            hub.add_tenant("ana", tokens=["tok-ana"])
            server_repo.add_remote(
                "hub", hub.local_transport("ana", "proj", "tok-ana")
            ).push(workload.name)
            server = serve_hub(hub, **options)
            endpoint = Endpoint(
                server, server.repo_url("ana", "proj"), "tok-ana", "handle_request"
            )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return endpoint

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestHttpHardening:
    """The same containment over a real socket, on both endpoints: HTTP
    status mapping and keep-alive connections that survive bad requests."""

    @pytest.fixture
    def http_server(self, start_endpoint):
        return start_endpoint()

    def test_malformed_push_over_http_is_typed_and_connection_survives(
        self, http_server, server_repo, workload
    ):
        transport = http_server.transport()
        with pytest.raises(RemoteProtocolError, match="'new'"):
            call_raw(
                transport,
                {"op": "push", "refs": {workload.name: {"master": {}}}},
            )
        # Same transport, same keep-alive connection: no reconnect needed.
        assert_still_serving(transport)
        assert transport.reconnects == 0
        transport.close()

    def test_garbage_body_over_http(self, http_server):
        transport = http_server.transport()
        response = transport.call(b"not a frame at all")
        meta, _ = decode_message(response)
        assert meta["error"]["type"] == "RemoteProtocolError"
        assert_still_serving(transport)
        transport.close()

    def test_handler_failure_maps_to_http_500_with_detail(
        self, http_server, server_repo, monkeypatch
    ):
        """A failure *outside* the dispatch's containment becomes HTTP 500
        with an error body the client surfaces — not a dropped socket."""

        def blow_up(*args):
            raise RuntimeError("handler blew up")

        transport = http_server.transport()
        with monkeypatch.context() as patch:
            patch.setattr(http_server.server.endpoint, http_server.dispatch, blow_up)
            with pytest.raises(TransportError, match="HTTP 500") as excinfo:
                transport.call(encode_message({"op": "manifest"}))
            assert "handler blew up" in str(excinfo.value)
        # The server is still alive and serving new connections.
        assert_still_serving(transport)
        transport.close()

    def test_oversized_request_rejected_with_413(self, start_endpoint):
        endpoint = start_endpoint(max_request_bytes=64)
        transport = endpoint.transport()
        with pytest.raises(TransportError, match="413"):
            transport.call(encode_message({"op": "manifest", "pad": "x" * 256}))
        small = endpoint.transport()
        assert_still_serving(small)
        small.close()
        transport.close()

    def test_clone_still_works_after_an_attack_burst(
        self, http_server, server_repo
    ):
        """A burst of malformed traffic must not degrade the endpoint."""
        hostile = http_server.transport()
        for payload in (b"", b"junk", encode_message({"op": "push", "refs": 1})):
            meta, _ = decode_message(hostile.call(payload))
            assert "error" in meta
        hostile.close()
        clone = clone_repository(
            http_server.transport(), registry=server_repo.registry
        )
        assert len(clone.graph) == len(server_repo.graph)

    def test_bad_content_length_is_400_counted_once(self, http_server):
        received, counted = http_server.raw(http_server.head("Content-Length: ten\r\n"))
        [(status, head)] = responses(received)
        assert status == 400 and b"Connection: close" in head
        assert counted == 1

    def test_short_read_closes_the_connection_unanswered(self, http_server):
        received, counted = http_server.raw(
            http_server.head("Content-Length: 100\r\n") + b"only ten b"
        )
        assert received == b""  # no request to answer, and no framing left
        assert counted == 1

    def test_chunked_post_is_refused_once_and_the_connection_closed(
        self, http_server
    ):
        """``Transfer-Encoding`` used to be read as an empty body (a typed
        error) and its chunks as the next request line (an uncounted
        400): one request, two answers. Now: one 411, counted, closed."""
        body = encode_message({"op": "manifest"})
        request = http_server.head("Transfer-Encoding: chunked\r\n") + (
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        )
        received, counted = http_server.raw(request)
        [(status, head)] = responses(received)
        assert status == 411 and b"Connection: close" in head
        assert counted == 1

    def test_keep_alive_is_cut_once_the_request_limit_is_spent(self, http_server):
        server = http_server.server
        server.request_limit = server.endpoint.requests_handled + 2
        body = encode_message({"op": "manifest"})
        request = http_server.head(f"Content-Length: {len(body)}\r\n") + body
        # Two requests pipelined on one connection: the first is answered
        # keep-alive, the second spends the budget and closes it.
        received, counted = http_server.raw(request * 2)
        assert [
            (status, b"Connection: close" in head)
            for status, head in responses(received)
        ] == [(200, False), (200, True)]
        assert counted == 2
