"""Protocol drift rules over a miniature of the real wire stack.

PT001-PT004 are retired: handler/table agreement is enforced when
``RepositoryServer`` is defined (``tests/remote/test_op_table.py``),
validators are a mandatory ``OpSpec`` field, and the classification
sets are comprehensions over the table.
"""

import textwrap

OPS_OK = """\
    def _validate_ping(spec, meta, blobs):
        if not isinstance(meta.get("payload", ""), str):
            spec.fail("bad payload")


    def _validate_push(spec, meta, blobs):
        if not isinstance(meta.get("commits", []), list):
            spec.fail("bad commits")


    OP_TABLE: dict = {
        spec.name: spec
        for spec in (
            OpSpec("ping", _validate_ping, p99_seconds=0.5),
            OpSpec("push", _validate_push, p99_seconds=5.0, write=True),
        )
    }
"""

PROTOCOL_OK = """\
    from .ops import OP_TABLE

    PROTOCOL_VERSION = 1

    OPS = tuple(OP_TABLE)

    WRITE_OPS = frozenset(s.name for s in OP_TABLE.values() if s.write)


    class PingError(Exception):
        pass


    TYPED_ERRORS = {cls.__name__: cls for cls in (PingError,)}


    def raise_remote_error(meta):
        error = meta.get("error")
        if error is None:
            return
        if error.get("type") == "SpecialError":
            raise RuntimeError(error.get("message"))
        raise RuntimeError(error)
"""

SERVER_OK = """\
    from .ops import OP_TABLE


    def validate_request(op, meta, blobs):
        OP_TABLE[op].validate(meta, blobs)


    class Server:
        def _op_ping(self, meta, blobs):
            return meta.get("payload", "")

        def _op_push(self, meta, blobs):
            return self.repo.import_commits(meta.get("commits", []))
"""


def _write_stack(tree, protocol=PROTOCOL_OK, server=SERVER_OK, extra=None):
    tree.write("ops.py", OPS_OK)
    tree.write("protocol.py", protocol)
    tree.write("server.py", server)
    for rel_path, source in (extra or {}).items():
        tree.write(rel_path, source)


class TestCleanStack:
    def test_miniature_stack_is_clean(self, tree):
        _write_stack(tree)
        assert [f for f in tree.findings() if f.rule.startswith("PT")] == []

    def test_real_protocol_is_clean(self):
        # The actual wire stack must satisfy its own invariants.
        from pathlib import Path

        import repro
        from repro.analysis.report import run_lint

        root = Path(repro.__file__).resolve().parent
        result = run_lint(root, rules=["PT"])
        assert result.findings == []


class TestDrift:
    def test_pt005_client_sends_unknown_op(self, tree, line_of):
        source = tree.write(
            "client.py",
            """\
            class Client:
                def call(self, transport):
                    return transport.send({"op": "evict"})  # MARK unknown op

                def push_meta(self, meta):
                    meta["op"] = "push"
                    return meta
            """,
        )
        _write_stack(tree)
        findings = tree.findings("PT005")
        assert len(findings) == 1
        assert findings[0].line == line_of(source, "MARK unknown op")
        assert findings[0].symbol == "Client.call"

    def test_pt006_read_op_mutates(self, tree, line_of):
        server = SERVER_OK.replace(
            'def _op_ping(self, meta, blobs):\n            return meta.get("payload", "")',
            "def _op_ping(self, meta, blobs):\n"
            '            self.repo.set_head("main", meta.get("payload"))  # MARK mutation\n'
            "            return None",
        )
        assert server != SERVER_OK
        _write_stack(tree, server=server)
        findings = tree.findings("PT006")
        assert len(findings) == 1
        assert findings[0].line == line_of(textwrap.dedent(server), "MARK mutation")
        assert "'ping'" in findings[0].message

    def test_pt007_untyped_denial_error(self, tree):
        extra = {
            "hub.py": """\
            class QuotaError(Exception):
                pass


            _DENIAL_REASONS = (
                (QuotaError, "quota"),
            )
            """
        }
        _write_stack(tree, extra=extra)
        findings = tree.findings("PT007")
        assert len(findings) == 1
        assert "QuotaError" in findings[0].message

    def test_pt007_typed_and_special_cased_pass(self, tree):
        extra = {
            "hub.py": """\
            from .protocol import PingError


            _DENIAL_REASONS = (
                (PingError, "ping"),
                (SpecialError, "special"),
            )


            class SpecialError(Exception):
                pass
            """
        }
        _write_stack(tree, extra=extra)
        assert tree.findings("PT007") == []

    def test_pt008_missing_protocol_version(self, tree):
        _write_stack(tree, protocol=PROTOCOL_OK.replace("PROTOCOL_VERSION = 1\n", ""))
        findings = tree.findings("PT008")
        assert len(findings) == 1

    def test_no_op_table_means_silence(self, tree):
        tree.write("protocol.py", PROTOCOL_OK.replace("PROTOCOL_VERSION = 1\n", ""))
        tree.write("server.py", SERVER_OK)
        tree.write("client.py", 'REQUEST = {"op": "evict"}\n')
        assert [f for f in tree.findings() if f.rule.startswith("PT")] == []
