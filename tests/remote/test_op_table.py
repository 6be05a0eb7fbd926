"""The op table (`repro.ops.OP_TABLE`) and everything derived from it.

The seven classification names below used to be hand-kept literals in
six modules; they are now comprehensions over the table. The snapshot
pins their values so a table typo cannot silently move an op to the
write side, change an objective, or drop a shed exemption.

The second half checks each op's protocol contract by behaviour: each
test is parametrized over ``OP_TABLE`` or ``_DENIAL_REASONS``, so a new
op or denial is covered without editing a test (docs/invariants.md has
the map).
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import RemoteProtocolError
from repro.hub.hub import _DENIAL_REASONS, PREFLIGHT_OPS
from repro.obs.health import SHED_EXEMPT_OPS
from repro.obs.slo import DEFAULT_OP_OBJECTIVES
from repro.obs.slowops import DEFAULT_OP_THRESHOLDS
from repro.ops import OP_TABLE
from repro.remote import LocalTransport, Remote, RepositoryServer
from repro.remote import server as server_module
from repro.remote.protocol import (
    OPS,
    PROTOCOL_VERSION,
    WRITE_OPS,
    decode_message,
    encode_message,
    error_response,
    raise_remote_error,
)
from repro.remote.server import CACHEABLE_OPS


def test_derived_views_equal_the_pre_table_literals():
    assert isinstance(PROTOCOL_VERSION, int) and PROTOCOL_VERSION == 2
    assert OPS == (
        "manifest",
        "known_commits",
        "missing_chunks",
        "get_chunks",
        "put_chunks",
        "fetch",
        "push",
        "stats",
        "lineage",
        "trace",
        "health",
    )
    assert WRITE_OPS == frozenset({"push", "put_chunks"})
    assert CACHEABLE_OPS == frozenset(
        {"manifest", "known_commits", "missing_chunks", "fetch", "lineage"}
    )
    assert PREFLIGHT_OPS == frozenset(
        {"manifest", "known_commits", "missing_chunks"}
    )
    assert SHED_EXEMPT_OPS == frozenset({"health", "stats", "trace"})
    assert DEFAULT_OP_OBJECTIVES == {
        "manifest": 0.5,
        "known_commits": 0.5,
        "missing_chunks": 0.5,
        "get_chunks": 2.0,
        "put_chunks": 5.0,
        "fetch": 2.0,
        "push": 5.0,
        "stats": 0.5,
        "lineage": 1.0,
        "trace": 1.0,
        "health": 0.5,
    }
    assert DEFAULT_OP_THRESHOLDS == {
        "push": 5.0,
        "put_chunks": 5.0,
        "fetch": 2.0,
        "get_chunks": 2.0,
    }


def test_blob_digest_key_is_declared_for_exactly_the_write_ops():
    keys = {
        name: spec.blob_digests_key
        for name, spec in OP_TABLE.items()
        if spec.blob_digests_key is not None
    }
    assert keys == {"push": "chunk_digests", "put_chunks": "digests"}


class TestHandlerBindingFailsAtClassDefinition:
    """What PT001/PT002 linted for is now an import error."""

    def namespace(self) -> dict:
        return {f"_op_{op}": lambda self, meta, blobs: b"" for op in OPS}

    def test_missing_handler(self):
        namespace = self.namespace()
        del namespace["_op_fetch"]
        with pytest.raises(TypeError, match="_op_fetch"):
            server_module._bind_handlers(namespace)

    def test_handler_without_a_table_entry(self):
        namespace = self.namespace()
        namespace["_op_evict"] = lambda self, meta, blobs: b""
        with pytest.raises(TypeError, match="_op_evict"):
            server_module._bind_handlers(namespace)


@pytest.mark.parametrize("module", ["repro.obs", "repro.remote", "repro.ops"])
def test_module_imports_alone_in_a_fresh_interpreter(module):
    # obs reads the table too: were it to live under repro.remote, this
    # import would re-enter remote/__init__ -> server -> obs.health
    # mid-import. A fresh interpreter is the only honest check — in
    # this process everything is already in sys.modules.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_client_refuses_an_undeclared_op_before_framing_it(server_repo):
    calls = []

    class Counting(LocalTransport):
        def call(self, request: bytes) -> bytes:
            calls.append(request)
            return super().call(request)

    remote = Remote(None, Counting(RepositoryServer(server_repo)))
    for meta in ({"op": "evict"}, {}):
        with pytest.raises(RemoteProtocolError, match="unknown operation"):
            remote._call(meta)
    assert calls == []
    remote.manifest()
    assert len(calls) == 1


#: One well-formed request body per read-classified op, built from the
#: seeded repository. A new read op needs a row here: the test below
#: fails by name without one, so no RPC can skip it.
READ_REQUESTS = {
    "manifest": lambda repo: {},
    "known_commits": lambda repo: {
        "ids": [c.commit_id for c in repo.graph.all_commits()]
    },
    "missing_chunks": lambda repo: {
        "digests": [*sorted(repo.objects.chunks.digests())[:3], "0" * 64]
    },
    "get_chunks": lambda repo: {
        "digests": sorted(repo.objects.chunks.digests())[:3]
    },
    "fetch": lambda repo: {"want": None, "have_commits": []},
    "stats": lambda repo: {},
    "lineage": lambda repo: {
        "query": "lineage", "ref": repo.lineage.records()[0].output_ref
    },
    "trace": lambda repo: {},
    "health": lambda repo: {},
}


@pytest.mark.parametrize(
    "op", [name for name, spec in OP_TABLE.items() if not spec.write]
)
def test_read_classified_op_leaves_the_repository_untouched(op, server_repo):
    # Reads run under the shared lock side and the hub routes them
    # around quota admission: one that mutates is a race and a bypass.
    assert op in READ_REQUESTS, f"read op {op!r} has no READ_REQUESTS row"
    server = RepositoryServer(server_repo)

    def state():
        return (
            server._state_token(),
            sorted(server_repo.objects.chunks.digests()),
        )

    before = state()
    request = {"op": op, **READ_REQUESTS[op](server_repo)}
    meta, _ = decode_message(server.handle_bytes(encode_message(request)))
    assert "error" not in meta, meta
    assert state() == before


@pytest.mark.parametrize(
    "cls", [cls for cls, _ in _DENIAL_REASONS], ids=lambda cls: cls.__name__
)
def test_every_denial_reaches_the_client_as_its_own_type(cls):
    meta, _ = decode_message(error_response(cls("denied by the hub")))
    with pytest.raises(cls) as caught:
        raise_remote_error(meta)
    assert type(caught.value) is cls  # not collapsed onto a base class
    assert "denied by the hub" in str(caught.value)


def test_every_op_has_its_latency_series(server_repo):
    # An op without a resolved histogram child would serve without
    # sliding-window percentiles and could never trip the shedder (and
    # handle_bytes would KeyError on its first request).
    server = RepositoryServer(server_repo)
    assert set(server._m_seconds) == {*OP_TABLE, "invalid"}
    assert set(server._m_seconds) == set(server._m_requests)
