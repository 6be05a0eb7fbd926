"""The op table (`repro.ops.OP_TABLE`) and everything derived from it.

The six classification names below used to be hand-kept literals in
modules of their own; they are now comprehensions over the table. The snapshot
pins their values so a table typo cannot silently move an op to the
write side, change an objective, or drop a shed exemption.

The second half checks each op's protocol contract by behaviour: each
test is parametrized over ``OP_TABLE`` or ``_DENIAL_REASONS``, so a new
op or denial is covered without editing a test (docs/invariants.md has
the map). The last test fuzzes every op: any request is answered with a
typed response, and a refused one changes nothing.
"""

import copy
import functools
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro import MLCask
from repro.errors import RemoteProtocolError
from repro.hub.hub import _DENIAL_REASONS, PREFLIGHT_OPS
from repro.obs.health import SHED_EXEMPT_OPS
from repro.obs.propagation import TRACE_CTX_KEY
from repro.obs.slo import DEFAULT_OP_OBJECTIVES
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

from helpers import fresh_toy_repo, oracle_settings


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
        "health",
    )
    assert WRITE_OPS == frozenset({"push", "put_chunks"})
    assert CACHEABLE_OPS == frozenset(
        {
            "manifest", "known_commits", "missing_chunks", "get_chunks",
            "fetch", "lineage",
        }
    )
    assert PREFLIGHT_OPS == frozenset(
        {"manifest", "known_commits", "missing_chunks"}
    )
    assert SHED_EXEMPT_OPS == frozenset({"health", "stats"})
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
        "health": 0.5,
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
    for meta in ({"op": "evict"}, {"op": "trace"}, {}):
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


# ------------------------------------------------------------- fuzzing
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
#: Every meta key some handler reads, drawn beside arbitrary text keys.
META_KEYS = st.sampled_from([
    "ids", "digests", "max_bytes", "want", "have_commits", "commits",
    "specs", "recipes", "records", "lineage", "chunk_digests", "refs",
    "query", "ref", "component", "version", "trace_id", "repo_config",
    TRACE_CTX_KEY,
]) | st.text(max_size=8)


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


@functools.cache
def toy_push() -> tuple[dict, list]:
    """The one push request of a fresh toy repository (meta, blobs)."""
    captured = []

    class Recording(LocalTransport):
        def call(self, request: bytes) -> bytes:
            captured.append(decode_message(request))
            return super().call(request)

    Remote(fresh_toy_repo(), Recording(RepositoryServer(MLCask()))).push("toy")
    (push,) = [request for request in captured if request[0]["op"] == "push"]
    return push


@st.composite
def damaged_push(draw) -> dict:
    """The toy push with one field of one pack row dropped or retyped."""
    meta = copy.deepcopy(toy_push()[0])
    rows = [("specs", name) for name in meta["specs"]] + [
        (key, index)
        for key in ("commits", "recipes", "records", "lineage")
        for index in range(len(meta[key]))
    ]
    key, index = draw(st.sampled_from(rows))
    row = meta[key][index]
    field = draw(st.sampled_from(sorted(row)))
    if draw(st.booleans()):
        del row[field]
    else:
        kind = json_type(row[field])
        row[field] = draw(JSON.filter(lambda value: json_type(value) != kind))
    return meta


def repository_state(server) -> tuple:
    repo = server.repo
    return (
        server._state_token(),
        sorted(repo._specs),
        len(repo.checkpoints.records()),
        len(repo.lineage),
        sorted(repo.objects.chunks.digests()),
    )


def first_pack_rows(meta: dict) -> dict:
    """The first row under each row-valued key of a push, by its path."""
    (spec_name, *_) = meta["specs"]
    rows = {("specs", spec_name): meta["specs"][spec_name]}
    for key in ("commits", "recipes", "records", "lineage"):
        rows[key, 0] = meta[key][0]
    return rows


PACK_ROW_FIELDS = [
    (*path, field)
    for path, row in first_pack_rows(toy_push()[0]).items()
    for field in sorted(row)
]


@pytest.mark.parametrize(
    "key, index, field", PACK_ROW_FIELDS,
    ids=[f"{key}-{field}" for key, _, field in PACK_ROW_FIELDS],
)
def test_each_retyped_pack_field_is_refused_before_any_import(key, index, field):
    # The fuzz test below draws some of these; this one walks them all,
    # so no field of any row kind goes undecoded before the first import.
    server = RepositoryServer(MLCask())
    meta, blobs = copy.deepcopy(toy_push())
    row = meta[key][index]
    row[field] = 0 if isinstance(row[field], str) else "0"
    before = repository_state(server)
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    message = response["error"]["message"]
    # The validator refuses a few fields by name; the codecs the rest.
    assert message.startswith("invalid push request: "), message
    assert repository_state(server) == before


def name_an_unheld_parent(meta: dict) -> None:
    meta["commits"][0]["parents"] = ["a" * 64]


def name_an_unheld_new_head(meta: dict) -> None:
    meta["refs"]["toy"]["master"]["new"] = "b" * 64


@pytest.mark.parametrize(
    "damage, refusal",
    [
        (name_an_unheld_parent, "CommitNotFoundError"),
        (name_an_unheld_new_head, "PushRejectedError"),
    ],
    ids=["parent", "new-head"],
)
def test_a_push_naming_an_unheld_commit_is_refused_before_any_import(
    damage, refusal
):
    # Rows that decode but name a commit neither in the pack nor held
    # would fail at the graph, after the content imports had landed.
    server = RepositoryServer(MLCask())
    meta, blobs = copy.deepcopy(toy_push())
    damage(meta)
    before = repository_state(server)
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    assert response["error"]["type"] == refusal, response
    assert repository_state(server) == before


@pytest.mark.parametrize("op", OPS)
@oracle_settings(max_examples=40)
@given(data=st.data())
def test_any_request_is_answered_typed_and_a_refusal_changes_nothing(op, data):
    # A push lands in an empty repository, so a half-applied one shows;
    # every other op reads a repository holding the toy push.
    server = RepositoryServer(MLCask())
    push_meta, push_blobs = toy_push()
    if op == "push":
        meta = data.draw(damaged_push() | st.dictionaries(META_KEYS, JSON, max_size=4))
        blobs = push_blobs
    else:
        server.handle_bytes(encode_message(push_meta, push_blobs))
        meta = data.draw(st.dictionaries(META_KEYS, JSON, max_size=4))
        blobs = data.draw(st.lists(st.binary(max_size=16), max_size=2))
    before = repository_state(server)
    response, _ = decode_message(
        server.handle_bytes(encode_message({**meta, "op": op}, blobs))
    )
    error = response.get("error")
    if error is not None:
        assert not error["message"].startswith("internal server error"), error
        assert repository_state(server) == before, error
