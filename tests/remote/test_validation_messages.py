"""Every request-validation message, pinned verbatim.

``test_hardening.py`` matches fragments of a handful of these; here each
validated field of every op has one malformed request asserting the
*exact* ``invalid <op> request: …`` text a peer sees, plus one valid
request per op. The messages are wire behaviour — clients and operators
grep for them — so a refactor of the validators must leave every string
byte-identical.
"""

import pytest

from repro.errors import RemoteProtocolError
from repro.remote.protocol import OPS
from repro.remote.server import validate_request

_REFS_SHAPE = "'refs' must be {pipeline: {branch: {old, new}}}"
_RECIPE_SHAPE = (
    "every recipe needs a string 'blob', a 'chunks' list of strings, "
    "and an integer 'size'"
)
_QUERIES = "('lineage', 'consumers', 'impact')"

#: (op, meta, blobs, message after ``invalid <op> request: ``)
MALFORMED = [
    ("known_commits", {"ids": "abc"}, [], "'ids' must be a list of strings"),
    ("known_commits", {"ids": [1]}, [], "'ids' must be a list of strings"),
    (
        "missing_chunks", {"digests": {"a": 1}}, [],
        "'digests' must be a list of strings",
    ),
    (
        "missing_chunks", {"digests": [None]}, [],
        "'digests' must be a list of strings",
    ),
    ("get_chunks", {"digests": "d"}, [], "'digests' must be a list of strings"),
    (
        "get_chunks", {"digests": [], "max_bytes": 0}, [],
        "'max_bytes' must be a positive integer",
    ),
    (
        "get_chunks", {"digests": [], "max_bytes": True}, [],
        "'max_bytes' must be a positive integer",
    ),
    (
        "get_chunks", {"digests": [], "max_bytes": "1"}, [],
        "'max_bytes' must be a positive integer",
    ),
    (
        "put_chunks", {"digests": [["x"]]}, [b"blob"],
        "chunk digests must be a list of strings",
    ),
    (
        "put_chunks", {"digests": [{"a": 1}]}, [b"blob"],
        "chunk digests must be a list of strings",
    ),
    (
        "put_chunks", {"digests": ["a", "b"]}, [b"blob"],
        "2 chunk digests but 1 blobs",
    ),
    ("put_chunks", {}, [b"blob"], "0 chunk digests but 1 blobs"),
    (
        "fetch", {"want": ["p"]}, [],
        "'want' must be null or {pipeline: [branch, ...]}",
    ),
    (
        "fetch", {"want": {"p": "master"}}, [],
        "'want' must map pipeline names to branch lists",
    ),
    (
        "fetch", {"want": {"p": [1]}}, [],
        "'want' must map pipeline names to branch lists",
    ),
    (
        "fetch", {"have_commits": "c"}, [],
        "'have_commits' must be a list of strings",
    ),
    ("push", {"commits": "nope"}, [], "'commits' must be a list of commit dicts"),
    ("push", {"commits": ["c"]}, [], "'commits' must be a list of commit dicts"),
    (
        "push", {"commits": [{"sequence": 0}]}, [],
        "every commit needs a string 'commit_id'",
    ),
    (
        "push", {"commits": [{"commit_id": "c", "sequence": "0"}]}, [],
        "every commit needs an integer 'sequence'",
    ),
    ("push", {"specs": []}, [], "'specs' must be a dict"),
    ("push", {"recipes": {}}, [], "'recipes' must be a list of recipe dicts"),
    ("push", {"recipes": [{"chunks": [], "size": 0}]}, [], _RECIPE_SHAPE),
    (
        "push", {"recipes": [{"blob": "b", "chunks": "c", "size": 0}]}, [],
        _RECIPE_SHAPE,
    ),
    (
        "push", {"recipes": [{"blob": "b", "chunks": [], "size": True}]}, [],
        _RECIPE_SHAPE,
    ),
    ("push", {"records": [1]}, [], "'records' must be a list of record dicts"),
    (
        "push", {"lineage": "l"}, [],
        "'lineage' must be a list of lineage-record dicts",
    ),
    (
        "push", {"chunk_digests": [["x"]]}, [b"blob"],
        "chunk digests must be a list of strings",
    ),
    (
        "push", {"chunk_digests": ["a"]}, [b"x", b"y"],
        "1 chunk digests but 2 blobs",
    ),
    ("push", {"refs": []}, [], _REFS_SHAPE),
    ("push", {"refs": {"p": "master"}}, [], _REFS_SHAPE),
    (
        "push", {"refs": {"p": {"master": "c"}}}, [],
        "every ref update must be a {old, new} dict",
    ),
    (
        "push", {"refs": {"p": {"master": {"old": None}}}}, [],
        "ref update for p:master is missing a non-empty 'new' head",
    ),
    (
        "push", {"refs": {"p": {"master": {"old": None, "new": ""}}}}, [],
        "ref update for p:master is missing a non-empty 'new' head",
    ),
    (
        "push", {"refs": {"p": {"master": {"old": 7, "new": "c"}}}}, [],
        "ref update for p:master has a non-string 'old' head",
    ),
    ("lineage", {}, [], f"'query' must be one of {_QUERIES}"),
    ("lineage", {"query": "bogus"}, [], f"'query' must be one of {_QUERIES}"),
    ("lineage", {"query": "lineage"}, [], "a 'lineage' query needs a string 'ref'"),
    (
        "lineage", {"query": "consumers", "ref": 5}, [],
        "a 'consumers' query needs a string 'ref'",
    ),
    (
        "lineage", {"query": "impact"}, [],
        "an 'impact' query needs a string 'component'",
    ),
    (
        "lineage", {"query": "impact", "component": "c", "version": 2}, [],
        "'version' must be null or a string",
    ),
    # The retired trace query is refused like any unknown form.
    (
        "lineage", {"query": "trace", "trace_id": "t"}, [],
        f"'query' must be one of {_QUERIES}",
    ),
]

#: One well-formed request per op (every optional field present).
VALID = {
    "manifest": ({}, []),
    "known_commits": ({"ids": ["c1", "c2"]}, []),
    "missing_chunks": ({"digests": ["d1"]}, []),
    "get_chunks": ({"digests": ["d1"], "max_bytes": 1024}, []),
    "put_chunks": ({"digests": ["d1", "d2"]}, [b"one", b"two"]),
    "fetch": ({"want": {"p": ["master"], "q": []}, "have_commits": ["c1"]}, []),
    "push": (
        {
            "commits": [{"commit_id": "c", "sequence": 0}],
            "specs": {},
            "recipes": [{"blob": "b", "chunks": ["d"], "size": 4}],
            "records": [{}],
            "lineage": [{}],
            "chunk_digests": ["d"],
            "refs": {"p": {"master": {"old": None, "new": "c"}}},
        },
        [b"blob"],
    ),
    "stats": ({}, []),
    "lineage": ({"query": "impact", "component": "model", "version": None}, []),
    "health": ({}, []),
}


@pytest.mark.parametrize(
    "op, meta, blobs, message",
    MALFORMED,
    ids=[f"{case[0]}-{index}" for index, case in enumerate(MALFORMED)],
)
def test_malformed_request_message_is_exact(op, meta, blobs, message):
    with pytest.raises(RemoteProtocolError) as raised:
        validate_request(op, {"op": op, **meta}, blobs)
    assert str(raised.value) == f"invalid {op} request: {message}"


@pytest.mark.parametrize("op", OPS)
def test_wellformed_request_passes(op):
    meta, blobs = VALID[op]
    validate_request(op, {"op": op, **meta}, blobs)


def test_every_lineage_query_form_validates():
    for meta in (
        {"query": "lineage", "ref": "r"},
        {"query": "consumers", "ref": "r"},
        {"query": "impact", "component": "c"},
    ):
        validate_request("lineage", {"op": "lineage", **meta}, [])
