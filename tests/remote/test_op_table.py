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

import collections
import copy
import dataclasses
import functools
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro import MLCask, codec
from repro.codec import decode
from repro.core.pipeline import PipelineSpec
from repro.errors import CommitNotFoundError, RemoteProtocolError
from repro.hub import RepositoryHub
from repro.hub.hub import _DENIAL_REASONS, PREFLIGHT_OPS
from repro.obs.health import SHED_EXEMPT_OPS
from repro.obs.metrics import MetricsRegistry
from repro.ops import OP_TABLE
from repro.provenance.ledger import LineageRecord
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
from repro.storage.hashing import sha256_hex

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
    assert {name: spec.p99_seconds for name, spec in OP_TABLE.items()} == {
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


# ---------------------------------------------------- handler failures
def failures(server) -> dict:
    """Each op's ``repro_request_errors_total`` count on ``server``."""
    return {op: child.value for op, child in server._m_errors.items()}


def served_request(op: str, repo) -> tuple[dict, list]:
    """A request ``op``'s handler answers without error on ``repo``
    (a push on an empty repository, every other op on ``repo``)."""
    if op == "push":
        return toy_push()
    if op == "put_chunks":
        return {"op": op, "digests": [sha256_hex(b"chunk")]}, [b"chunk"]
    return {"op": op, **READ_REQUESTS[op](repo)}, []


@pytest.mark.parametrize(
    "raised, answered",
    [
        (CommitNotFoundError("no such commit"), "CommitNotFoundError"),
        (KeyError("a bug"), "RemoteProtocolError"),
    ],
    ids=["typed", "untyped"],
)
@pytest.mark.parametrize("op", OPS)
def test_a_handler_failure_counts_once_against_its_op(
    op, raised, answered, server_repo
):
    # The burn signal: a validated request whose handler raises, typed
    # or not, is one failure of its own op and of no other.
    server = RepositoryServer(server_repo, registry=MetricsRegistry())
    meta, blobs = served_request(op, server_repo)

    def fail(meta, blobs):
        raise raised

    setattr(server, server._HANDLERS[op], fail)
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    assert response["error"]["type"] == answered, response
    assert failures(server) == {name: int(name == op) for name in OPS}


@pytest.mark.parametrize("op", OPS)
def test_a_served_request_counts_no_failure(op, server_repo):
    repo = MLCask() if op == "push" else server_repo
    server = RepositoryServer(repo, registry=MetricsRegistry())
    meta, blobs = served_request(op, repo)
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    assert "error" not in response, response
    assert set(failures(server).values()) == {0}


#: Requests refused before any handler runs: undecodable, unknown, and
#: one validation refusal for each op that validates a field.
REFUSED_REQUESTS = {
    "undecodable": b"\x00garbage",
    "unknown-op": encode_message({"op": "nope"}),
    "known_commits": encode_message({"op": "known_commits", "ids": "abc"}),
    "missing_chunks": encode_message({"op": "missing_chunks", "digests": {}}),
    "get_chunks": encode_message({"op": "get_chunks", "digests": [1]}),
    "put_chunks": encode_message({"op": "put_chunks", "digests": ["d"]}),
    "fetch": encode_message({"op": "fetch", "want": 3}),
    "push": encode_message({"op": "push", "commits": "abc"}),
    "lineage": encode_message({"op": "lineage", "query": "trace", "trace_id": "t"}),
}


@pytest.mark.parametrize(
    "payload", REFUSED_REQUESTS.values(), ids=REFUSED_REQUESTS.keys()
)
def test_a_refused_request_counts_no_failure(payload, server_repo):
    # A malformed peer is the peer's fault, not the service's: it must
    # never spend the error budget.
    server = RepositoryServer(server_repo, registry=MetricsRegistry())
    response, _ = decode_message(server.handle_bytes(payload))
    assert response["error"]["type"] == "RemoteProtocolError", response
    assert set(failures(server).values()) == {0}


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
    "query", "ref", "component", "version", "repo_config",
    # Read by no handler any more; older clients still send it.
    "trace_ctx",
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
    """The one push request of a fresh toy repository (meta, blobs).

    The blobs are copied out of the decoder's views into ``bytes``, so
    the request can be deep-copied and outlive its frame."""
    captured = []

    class Recording(LocalTransport):
        def call(self, request: bytes) -> bytes:
            captured.append(decode_message(request))
            return super().call(request)

    Remote(fresh_toy_repo(), Recording(RepositoryServer(MLCask()))).push("toy")
    ((meta, blobs),) = [request for request in captured if request[0]["op"] == "push"]
    return meta, [bytes(blob) for blob in blobs]


@functools.cache
def toy_origin() -> RepositoryServer:
    """A server holding the toy repository; only ever fetched from."""
    return RepositoryServer(fresh_toy_repo())


@functools.cache
def toy_fetch() -> dict:
    """The meta of the fetch response a fresh client gets from
    :func:`toy_origin`."""
    captured = []

    class Recording(LocalTransport):
        def call(self, request: bytes) -> bytes:
            response = super().call(request)
            if decode_message(request)[0]["op"] == "fetch":
                captured.append(decode_message(response)[0])
            return response

    Remote(MLCask(), Recording(toy_origin())).fetch()
    return captured[0]


def damage_a_row(draw, meta: dict) -> dict:
    """A copy of ``meta`` with one field of one pack row dropped or
    retyped."""
    meta = copy.deepcopy(meta)
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


@st.composite
def damaged_push(draw) -> dict:
    """The toy push with one field of one pack row dropped or retyped."""
    return damage_a_row(draw, toy_push()[0])


@st.composite
def damaged_fetch(draw) -> dict:
    """The toy fetch response with one field of one pack row dropped or
    retyped."""
    return damage_a_row(draw, toy_fetch())


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


#: Wire fields no codec reads: a ledger row still carries the retired
#: ``trace_id``/``span_id`` (always empty) so the bytes stay the same.
IGNORED_ROW_FIELDS = {("lineage", "trace_id"), ("lineage", "span_id")}

#: Fields a row may omit: a lineage row's amendments, which then take
#: their defaults.
LINEAGE_DEFAULTS = {
    spec.name: spec.default
    for spec in dataclasses.fields(LineageRecord)
    if spec.default is not dataclasses.MISSING
}
assert sorted(LINEAGE_DEFAULTS) == [
    "branch", "collected", "commit_id", "cpu_seconds", "wall_seconds",
]

PACK_ROW_FIELDS = [
    (*path, field)
    for path, row in first_pack_rows(toy_push()[0]).items()
    for field in sorted(row)
    if (path[0], field) not in IGNORED_ROW_FIELDS
]


def retyped(row: dict, field: str) -> None:
    row[field] = 0 if isinstance(row[field], str) else "0"


def dropped(row: dict, field: str) -> None:
    del row[field]


@pytest.mark.parametrize("damage", [retyped, dropped], ids=["retyped", "dropped"])
@pytest.mark.parametrize(
    "key, index, field", PACK_ROW_FIELDS,
    ids=[f"{key}-{field}" for key, _, field in PACK_ROW_FIELDS],
)
def test_each_retyped_pack_field_is_refused_before_any_import(
    key, index, field, damage
):
    # The fuzz test below draws some of these; this one walks them all,
    # so no field of any row kind goes undecoded before the first import,
    # and the rows a push accepts stay exactly the rows it accepted.
    server = RepositoryServer(MLCask())
    meta, blobs = copy.deepcopy(toy_push())
    damage(meta[key][index], field)
    before = repository_state(server)
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    if damage is dropped and key == "lineage" and field in LINEAGE_DEFAULTS:
        assert response.get("ok") is True, response
        first = server.repo.lineage.records()[0]
        assert getattr(first, field) == LINEAGE_DEFAULTS[field]
        return
    message = response["error"]["message"]
    # The validator refuses a few fields by name; the codecs the rest.
    assert message.startswith("invalid push request: "), message
    assert repository_state(server) == before


def test_a_retyped_ignored_field_is_not_read():
    server = RepositoryServer(MLCask())
    meta, blobs = copy.deepcopy(toy_push())
    for _, field in sorted(IGNORED_ROW_FIELDS):
        meta["lineage"][0][field] = 0
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    assert response.get("ok") is True, response


def test_a_recipe_naming_a_non_string_chunk_is_refused_on_a_hub_alike():
    # A hosted repository interns each recipe's chunk digests. That runs
    # after the request's validation and the codecs' decode of every row,
    # so a digest that is no string meets their typed refusal before any
    # import, on a hub as on a plain server, never the bare TypeError of
    # ``sys.intern``.
    hub = RepositoryHub()
    hub.add_tenant("ana", tokens=["tok"])
    hub.create_repo("ana", "proj")
    hosted = hub._loaded["ana", "proj"].server
    meta, blobs = copy.deepcopy(toy_push())
    meta["recipes"][0]["chunks"][0] = 3
    request = encode_message(meta, blobs)
    before = repository_state(hosted)
    on_hub, _ = decode_message(hub.handle_request("ana", "proj", "tok", request))
    plain, _ = decode_message(RepositoryServer(MLCask()).handle_bytes(request))
    assert on_hub["error"] == plain["error"]
    assert on_hub["error"]["type"] == "RemoteProtocolError"
    assert on_hub["error"]["message"].startswith("invalid push request: ")
    assert repository_state(hosted) == before


#: Every ``trace_ctx`` shape an older client stamped, or a broken one
#: could: well-formed, with a sampling flag, and malformed every way the
#: retired parser once had to survive.
OLDER_TRACE_CONTEXTS = {
    "well-formed": {"trace_id": "ab" * 8, "span_id": "cd" * 8},
    "malformed": "garbage",
    "sampled-false": {"trace_id": "ab" * 8, "span_id": "cd" * 8, "sampled": False},
    "sampled-text": {"trace_id": "ab" * 8, "span_id": "cd" * 8, "sampled": "yes"},
    "empty-list": [],
    "number": 42,
    "empty-object": {},
    "no-span-id": {"trace_id": "ab" * 8},
    "no-trace-id": {"span_id": "ab" * 8},
    "null-trace-id": {"trace_id": None, "span_id": "ab" * 8},
    "numeric-trace-id": {"trace_id": 123, "span_id": "ab" * 8},
    "non-hex-trace-id": {"trace_id": "XYZ", "span_id": "ab" * 8},
    "uppercase-trace-id": {"trace_id": "AB" * 8, "span_id": "ab" * 8},
    "empty-trace-id": {"trace_id": "", "span_id": "ab" * 8},
    "overlong-trace-id": {"trace_id": "a" * 65, "span_id": "ab" * 8},
    "spaced-span-id": {"trace_id": "ab" * 8, "span_id": "ab cd"},
    "numeric-span-id": {"trace_id": "ab" * 8, "span_id": 12345},
}


@pytest.mark.parametrize(
    "context", OLDER_TRACE_CONTEXTS.values(), ids=OLDER_TRACE_CONTEXTS.keys()
)
def test_an_older_clients_trace_context_is_ignored(server_repo, context):
    # Older clients stamp a ``trace_ctx`` meta key; both endpoints answer
    # it exactly as they answer the request without it.
    hub = RepositoryHub()
    hub.add_tenant("ana", tokens=["tok"])
    hub.create_repo("ana", "proj")
    endpoints = [
        RepositoryServer(server_repo).handle_bytes,
        functools.partial(hub.handle_request, "ana", "proj", "tok"),
    ]
    for handle in endpoints:
        plain = handle(encode_message({"op": "manifest"}))
        stamped = handle(encode_message({"op": "manifest", "trace_ctx": context}))
        assert "error" not in decode_message(stamped)[0]
        assert stamped == plain


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


@pytest.mark.parametrize("corrupt", range(len(toy_push()[1])))
def test_a_push_with_a_corrupt_blob_registers_nothing(corrupt):
    # Content imports first: the blob that fails its hash is refused
    # before any spec, recipe, record, lineage row or commit lands.
    # Chunks verified before it may stay, unreferenced, until GC.
    server = RepositoryServer(MLCask())
    repo = server.repo
    meta, blobs = copy.deepcopy(toy_push())
    blobs[corrupt] = bytes(len(blobs[corrupt]))
    before = (
        len(repo._specs), repo.graph.revision, repo.branches.revision,
        repo.checkpoints.revision, repo.lineage.revision,
    )
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    assert response["error"]["type"] == "ChunkIntegrityError", response
    assert (
        len(repo._specs), repo.graph.revision, repo.branches.revision,
        repo.checkpoints.revision, repo.lineage.revision,
    ) == before


def test_a_push_redefining_a_held_spec_is_refused_before_any_import():
    server = RepositoryServer(MLCask())
    meta, blobs = copy.deepcopy(toy_push())
    server.repo._specs["toy"] = decode(
        PipelineSpec, {**meta["specs"]["toy"], "edges": []}, name="toy"
    )
    before = repository_state(server)
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    assert "different spec" in response["error"]["message"], response
    assert repository_state(server) == before


class Answering(LocalTransport):
    """Answers ``op`` (a fetch by default) with ``meta``; passes every other
    request on. ``ops`` lists the operations asked for, in order."""

    def __init__(self, server, meta: dict, op: str = "fetch"):
        super().__init__(server)
        self.meta = meta
        self.op = op
        self.ops = []

    def call(self, request: bytes) -> bytes:
        self.ops.append(decode_message(request)[0]["op"])
        if self.ops[-1] == self.op:
            return encode_message(self.meta)
        return super().call(request)


def client_state(repo) -> tuple:
    return (
        dict(repo._specs),
        repo.objects.recipes(),
        repo.checkpoints.records(),
        repo.lineage.records(),
        repo.graph.arrivals(),
        sorted(repo.objects.chunks.digests()),
        repo.branches.revision,
    )


def test_a_fetch_response_with_an_undecodable_row_changes_nothing():
    # Every row decodes before the first import: a bad last checkpoint
    # record used to land the spec, the recipes and the records before it.
    meta = copy.deepcopy(toy_fetch())
    meta["records"][-1]["output_bytes"] = "0"
    client = MLCask()
    before = client_state(client)
    with pytest.raises(RemoteProtocolError) as error:
        Remote(client, Answering(toy_origin(), meta)).fetch()
    index = len(meta["records"]) - 1
    assert str(error.value).startswith(
        f"invalid fetch response: records[{index}] does not decode: TypeError: "
        "CheckpointRecord.output_bytes must be int"
    ), error.value
    assert client_state(client) == before


#: Refs of the wrong shape, and where the refusal names the fault.
BAD_REFS = [
    ([], "refs is list, not a map of pipelines"),
    ({"toy": 5}, "refs['toy'] is int, not a map of branches"),
    ({"toy": {"master": 7}}, "refs['toy']['master'] is int, not a commit id"),
]


@pytest.mark.parametrize("refs,fault", BAD_REFS, ids=[repr(r) for r, _ in BAD_REFS])
def test_a_fetch_response_with_refs_of_the_wrong_shape_changes_nothing(refs, fault):
    meta = {**copy.deepcopy(toy_fetch()), "refs": refs}
    client = MLCask()
    before = client_state(client)
    with pytest.raises(RemoteProtocolError) as error:
        Remote(client, Answering(toy_origin(), meta)).fetch()
    assert str(error.value) == f"invalid fetch response: {fault}"
    assert client_state(client) == before


@pytest.mark.parametrize("refs,fault", BAD_REFS, ids=[repr(r) for r, _ in BAD_REFS])
def test_a_push_against_refs_of_the_wrong_shape_asks_for_no_chunks(refs, fault):
    transport = Answering(
        RepositoryServer(MLCask()), {"refs": refs, "metric": "accuracy", "seed": 0}, "manifest"
    )
    with pytest.raises(RemoteProtocolError) as error:
        Remote(fresh_toy_repo(), transport).push("toy")
    assert str(error.value) == f"invalid manifest response: {fault}"
    assert transport.ops == ["manifest"]


def pack_rows(meta: dict) -> collections.Counter:
    """How many rows of each class a pack carries."""
    return collections.Counter({
        "PipelineSpec": len(meta["specs"]),
        "PipelineCommit": len(meta["commits"]),
        "Recipe": len(meta["recipes"]),
        "CheckpointRecord": len(meta["records"]),
        "LineageRecord": len(meta["lineage"]),
    })


def test_each_pack_row_is_decoded_once(monkeypatch):
    decoded = collections.Counter()
    build = codec.build

    def counting(cls, **values):
        decoded[cls.__name__] += 1
        return build(cls, **values)

    monkeypatch.setattr(codec, "build", counting)
    meta, blobs = toy_push()
    server = RepositoryServer(MLCask())
    response, _ = decode_message(server.handle_bytes(encode_message(meta, blobs)))
    assert response.get("ok") is True, response
    assert decoded == pack_rows(meta)
    decoded.clear()
    Remote(MLCask(), Answering(toy_origin(), toy_fetch())).fetch()
    assert decoded == pack_rows(toy_fetch())


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


@oracle_settings(max_examples=40)
@given(meta=damaged_fetch())
def test_a_damaged_fetch_response_is_refused_typed_and_changes_nothing(meta):
    # The client side of the push fuzz test above: a response row with
    # a field dropped or retyped either decodes (an omitted lineage
    # amendment, a retired trace field) or is refused before anything
    # lands.
    client = MLCask()
    before = client_state(client)
    try:
        Remote(client, Answering(toy_origin(), meta)).fetch()
    except RemoteProtocolError:
        assert client_state(client) == before
