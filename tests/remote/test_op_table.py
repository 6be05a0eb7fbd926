"""The op table (`repro.ops.OP_TABLE`) and everything derived from it.

The seven classification names below used to be hand-kept literals in
six modules; they are now comprehensions over the table. The snapshot
pins their values so a table typo cannot silently move an op to the
write side, change an objective, or drop a shed exemption.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.hub.hub import PREFLIGHT_OPS
from repro.obs.health import SHED_EXEMPT_OPS
from repro.obs.slo import DEFAULT_OP_OBJECTIVES
from repro.obs.slowops import DEFAULT_OP_THRESHOLDS
from repro.ops import OP_TABLE
from repro.remote import server as server_module
from repro.remote.protocol import OPS, PROTOCOL_VERSION, WRITE_OPS
from repro.remote.server import CACHEABLE_OPS


def test_derived_views_equal_the_pre_table_literals():
    assert PROTOCOL_VERSION == 2
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
