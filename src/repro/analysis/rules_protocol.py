"""Protocol/schema drift rules (PT*).

The op table (``OP_TABLE`` in ``repro/ops.py``) is the single authority
for the wire protocol. What *derives* from it — the ``OPS``/``*_OPS``
classification sets, the default SLO objectives, ``validate_request``,
the server's handler binding — cannot drift and needs no rule (the
retired PT001–PT004); these rules cover the parties that still spell
things by hand.

PT005  client call site sends an op with no ``OP_TABLE`` entry.
PT006  handler for an op not marked ``write=True`` calls a mutating
       repository operation (would run under the shared lock side).
PT007  error class used in hub admission denials that is neither in
       ``TYPED_ERRORS`` nor special-cased by ``raise_remote_error``
       (the denial would reach clients untyped).
PT008  protocol module does not pin an integer ``PROTOCOL_VERSION``.

Discovery is structural, not path-based: the *op table* is the
module-level ``OP_TABLE`` assignment, read as its ``OpSpec("<name>",
..., write=True)`` calls; the *protocol module* is whichever analyzed
module assigns both ``OPS`` and ``WRITE_OPS``; a *handler* is any
``_op_*`` method. Absent an op table, the pack is silent (the tree
under analysis has no protocol).
"""

from __future__ import annotations

import ast

from .callgraph import Program
from .model import Finding, SourceFile, enclosing_symbol

#: Repository mutations a read-side handler must never perform.
_MUTATING_ATTRS = frozenset(
    {
        "import_content",
        "import_commits",
        "import_specs",
        "import_record",
        "import_chunk",
        "set_head",
        "prune",
        "discard",
    }
)

_HANDLER_PREFIX = "_op_"


def _module_assign(file: SourceFile, name: str) -> ast.Assign | ast.AnnAssign | None:
    """The module-level (annotated or plain) assignment to ``name``."""
    for node in file.tree.body:
        targets = (
            node.targets
            if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def find_op_table(program: Program) -> dict[str, bool] | None:
    """``op -> write?`` read off the ``OpSpec(...)`` calls inside the
    module-level ``OP_TABLE`` assignment, or None when no analyzed
    module declares one."""
    for file in program.files:
        node = _module_assign(file, "OP_TABLE")
        if node is None or node.value is None:
            continue
        ops: dict[str, bool] = {}
        for call in ast.walk(node.value):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "OpSpec"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                continue
            ops[call.args[0].value] = any(
                keyword.arg == "write"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in call.keywords
            )
        return ops
    return None


class _ProtocolFacts:
    """Everything extracted from the protocol module."""

    def __init__(self, file: SourceFile):
        self.file = file
        self.ops_line = _module_assign(file, "OPS").lineno
        self.typed_errors: set[str] = set()
        typed = _module_assign(file, "TYPED_ERRORS")
        if typed is not None:
            for node in ast.walk(typed.value):
                if isinstance(node, ast.Name) and node.id[:1].isupper():
                    self.typed_errors.add(node.id)
        self.special_cased: set[str] = set()
        version = _module_assign(file, "PROTOCOL_VERSION")
        self.has_version = (
            version is not None
            and isinstance(version.value, ast.Constant)
            and isinstance(version.value.value, int)
        )
        for node in file.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "raise_remote_error":
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Compare):
                        for comparator in sub.comparators:
                            if isinstance(comparator, ast.Constant) and isinstance(
                                comparator.value, str
                            ):
                                self.special_cased.add(comparator.value)


def _find_protocol(program: Program) -> _ProtocolFacts | None:
    for file in program.files:
        if (
            _module_assign(file, "OPS") is not None
            and _module_assign(file, "WRITE_OPS") is not None
        ):
            return _ProtocolFacts(file)
    return None


def _handlers(program: Program) -> dict[str, list]:
    """op name -> every ``_op_<name>`` method over all handler classes."""
    handlers: dict[str, list] = {}
    for fn in program.functions.values():
        if fn.cls is not None and fn.name.startswith(_HANDLER_PREFIX):
            handlers.setdefault(fn.name[len(_HANDLER_PREFIX) :], []).append(fn)
    return handlers


def _client_op_literals(file: SourceFile) -> list[tuple[str, int]]:
    """Every ``{"op": "<x>"}`` literal and ``...["op"] = "<x>"`` assignment."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "op"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    out.append((value.value, value.lineno))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and target.slice.value == "op"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    out.append((node.value.value, node.lineno))
    return out


def check(program: Program) -> list[Finding]:
    ops = find_op_table(program)
    if not ops:
        return []
    findings: list[Finding] = []

    # PT005 -----------------------------------------------------------------
    for file in program.files:
        for value, line in _client_op_literals(file):
            if value not in ops:
                findings.append(
                    Finding(
                        rule="PT005",
                        path=file.rel_path,
                        line=line,
                        symbol=enclosing_symbol(file.tree, line),
                        message=(
                            f"request sends op {value!r} which has no "
                            "OP_TABLE entry"
                        ),
                        hint="add the OpSpec entry and its handler before using it",
                    )
                )

    # PT006 -----------------------------------------------------------------
    for op, sites in _handlers(program).items():
        if ops.get(op, True):
            continue  # a write op, or no table entry (an import error)
        for fn in sites:
            for node in ast.walk(fn.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_ATTRS
                ):
                    findings.append(
                        Finding(
                            rule="PT006",
                            path=fn.file.rel_path,
                            line=node.lineno,
                            symbol=fn.symbol,
                            message=(
                                f"read-classified op {op!r} calls mutating "
                                f"{node.func.attr}() (runs under the shared "
                                "lock side)"
                            ),
                            hint="mark the op write=True in OP_TABLE or drop "
                            "the mutation",
                        )
                    )

    facts = _find_protocol(program)
    if facts is None:
        return findings

    # PT008 -----------------------------------------------------------------
    if not facts.has_version:
        findings.append(
            Finding(
                rule="PT008",
                path=facts.file.rel_path,
                line=facts.ops_line,
                symbol="<module>",
                message="protocol module does not pin an integer PROTOCOL_VERSION",
                hint="declare PROTOCOL_VERSION so peers can refuse mismatches loudly",
            )
        )

    # PT007 -----------------------------------------------------------------
    known = facts.typed_errors | facts.special_cased | {"RemoteError"}
    for file in program.files:
        node = _module_assign(file, "_DENIAL_REASONS")
        if node is None:
            continue
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Name) and sub.id[:1].isupper():
                if sub.id not in known:
                    findings.append(
                        Finding(
                            rule="PT007",
                            path=file.rel_path,
                            line=sub.lineno,
                            symbol="<module>",
                            message=(
                                f"denial error {sub.id} is not in TYPED_ERRORS "
                                "and not special-cased by raise_remote_error; "
                                "clients would see it untyped"
                            ),
                            hint="register the class in protocol.TYPED_ERRORS",
                        )
                    )
    return findings


__all__ = ["check", "find_op_table"]
