"""Observability rules (OB*).

OB001  metric family name breaks the naming convention: missing the
       ``repro_`` prefix, bad characters, a counter without ``_total``,
       a non-counter with ``_total``, or a reserved Prometheus suffix.
OB002  the same family name declared with a conflicting kind or label
       set at two sites (the registry raises at runtime — the lint
       catches it before a request has to).
OB003  a ``tracer.span(...)`` result that is neither entered with
       ``with`` nor stored in a variable that is — the span would
       never close, corrupting the trace tree for the whole request.
OB004  a ``LineageRecord(...)`` construction site that omits one of the
       required provenance fields (or passes them positionally) — the
       dataclass defaults would accept the call and silently emit a
       record unanchored in the lineage DAG.
OB005  broken trace continuity: a wire-handler function (remote server,
       hub) that decodes a request and opens a span without first
       adopting the propagated trace context — every such request would
       root a disjoint trace — or a span attribute written via
       ``.set(...)`` after the span's ``with`` block closed, mutating an
       already-exported span dict.
OB006  per-op request-latency histogram children not resolved by
       iterating the op table (``OPS``, ``OP_TABLE`` or an ``(*OPS,
       ...)`` alias) — a new RPC would serve without sliding-window
       percentiles, so it could never trip readiness or load shedding.
       (Objective coverage needs no rule: ``DEFAULT_OP_OBJECTIVES`` is
       derived from the table.) Silent when the analyzed tree has no
       op table (same discovery rule as the PT pack).
"""

from __future__ import annotations

import ast

from . import conventions
from .callgraph import Program
from .model import Finding, SourceFile, enclosing_symbol
from .rules_protocol import find_op_table

_KINDS = ("counter", "gauge", "histogram")


def _label_names(call: ast.Call) -> tuple[str, ...] | None:
    candidates: list[ast.expr] = []
    if len(call.args) >= 3:
        candidates.append(call.args[2])
    for keyword in call.keywords:
        if keyword.arg == "labels":
            candidates.append(keyword.value)
    for node in candidates:
        if isinstance(node, (ast.Tuple, ast.List)):
            labels = []
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    labels.append(elt.value)
                else:
                    return None
            return tuple(labels)
    return None


def _declarations(file: SourceFile):
    """(name, kind, labels|None, line) for every family declaration."""
    for node in ast.walk(file.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _KINDS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            # Anchor on the name literal's line: that is what the
            # finding is about, and where a suppression comment sits.
            yield (
                node.args[0].value,
                node.func.attr,
                _label_names(node),
                node.args[0].lineno,
            )


def _check_names(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for file in program.files:
        for name, kind, _, line in _declarations(file):
            problems: list[str] = []
            if not conventions.METRIC_NAME_RE.match(name):
                problems.append("must match repro_<lower_snake>")
            if kind == "counter" and not name.endswith(conventions.COUNTER_SUFFIX):
                problems.append("counters must end with _total")
            if kind != "counter" and name.endswith(conventions.COUNTER_SUFFIX):
                problems.append(f"only counters may end with _total (is a {kind})")
            for suffix in conventions.RESERVED_SUFFIXES:
                if name.endswith(suffix):
                    problems.append(f"{suffix} is reserved for exposition")
            if problems:
                findings.append(
                    Finding(
                        rule="OB001",
                        path=file.rel_path,
                        line=line,
                        symbol=enclosing_symbol(file.tree, line),
                        message=f"metric name {name!r}: " + "; ".join(problems),
                        hint="see the metric naming contract in analysis/conventions.py",
                    )
                )
    return findings


def _check_conflicts(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    seen: dict[str, tuple[str, tuple[str, ...] | None, str, int]] = {}
    for file in program.files:
        for name, kind, labels, line in _declarations(file):
            previous = seen.get(name)
            if previous is None:
                seen[name] = (kind, labels, file.rel_path, line)
                continue
            prev_kind, prev_labels, prev_path, prev_line = previous
            conflict = None
            if kind != prev_kind:
                conflict = f"declared as {prev_kind} at {prev_path}:{prev_line}"
            elif (
                labels is not None
                and prev_labels is not None
                and set(labels) != set(prev_labels)
            ):
                conflict = (
                    f"declared with labels {sorted(prev_labels)} at "
                    f"{prev_path}:{prev_line}, here {sorted(labels)}"
                )
            if conflict is not None:
                findings.append(
                    Finding(
                        rule="OB002",
                        path=file.rel_path,
                        line=line,
                        symbol=enclosing_symbol(file.tree, line),
                        message=(
                            f"metric {name!r} redeclared as {kind}; {conflict}"
                        ),
                        hint=(
                            "a family has one kind and one label set; reuse "
                            "the existing declaration or rename the metric"
                        ),
                    )
                )
    return findings


def _check_spans(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for file in program.files:
        with_contexts: set[int] = set()
        with_names: set[str] = set()
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_contexts.add(id(item.context_expr))
                    if isinstance(item.context_expr, ast.Name):
                        with_names.add(item.context_expr.id)
        for node in ast.walk(file.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
            ):
                continue
            if id(node) in with_contexts:
                continue
            parent_ok = False
            for candidate in ast.walk(file.tree):
                if (
                    isinstance(candidate, ast.Assign)
                    and candidate.value is node
                    and len(candidate.targets) == 1
                    and isinstance(candidate.targets[0], ast.Name)
                    and candidate.targets[0].id in with_names
                ):
                    parent_ok = True
                    break
            if parent_ok:
                continue
            findings.append(
                Finding(
                    rule="OB003",
                    path=file.rel_path,
                    line=node.lineno,
                    symbol=enclosing_symbol(file.tree, node.lineno),
                    message=(
                        "span opened but never entered: tracer.span(...) must "
                        "be used as a context manager so it closes on all paths"
                    ),
                    hint="write `with tracer.span(...):` (or enter the variable)",
                )
            )
    return findings


def _check_lineage_fields(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    required = set(conventions.LINEAGE_REQUIRED_FIELDS)
    for file in program.files:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name != "LineageRecord":
                continue
            if any(keyword.arg is None for keyword in node.keywords):
                # **kwargs construction (the dict-codec path): field
                # presence is a runtime fact the AST cannot see.
                continue
            passed = {keyword.arg for keyword in node.keywords}
            missing = sorted(required - passed)
            problems: list[str] = []
            if node.args:
                problems.append(
                    "fields must be passed as keywords, not positionally"
                )
            if missing:
                problems.append(
                    "missing required provenance fields: " + ", ".join(missing)
                )
            if problems:
                findings.append(
                    Finding(
                        rule="OB004",
                        path=file.rel_path,
                        line=node.lineno,
                        symbol=enclosing_symbol(file.tree, node.lineno),
                        message="LineageRecord(...): " + "; ".join(problems),
                        hint=(
                            "every construction site names the full schema "
                            "(conventions.LINEAGE_REQUIRED_FIELDS); defaults "
                            "exist only for the back-filled amendments"
                        ),
                    )
                )
    return findings


#: Files whose functions handle raw wire payloads: the only places a
#: request's propagated trace context is available to adopt.
_HANDLER_FILES = ("remote/server.py",)
_HANDLER_DIR_PREFIXES = ("hub/",)


def _is_handler_file(rel_path: str) -> bool:
    # rel_path leads with the analyzed package's directory name
    # ("repro/remote/server.py"); the handler set is package-internal.
    _, _, inner = rel_path.partition("/")
    return inner in _HANDLER_FILES or inner.startswith(_HANDLER_DIR_PREFIXES)


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _check_handler_adoption(program: Program) -> list[Finding]:
    """OB005a: a handler function that decodes a request and opens a span
    must adopt the propagated trace context (lexically) in between —
    otherwise every remote request roots a disjoint trace and the
    cross-process join (PR 8's ``trace_forensics``) silently degrades."""
    findings: list[Finding] = []
    for file in program.files:
        if not _is_handler_file(file.rel_path):
            continue
        for func in ast.walk(file.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            span_lines: list[int] = []
            decode_lines: list[int] = []
            adopt_lines: list[int] = []
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name == "span":
                    span_lines.append(node.lineno)
                elif name == "decode_message":
                    decode_lines.append(node.lineno)
                elif name == "adopt_remote_context":
                    adopt_lines.append(node.lineno)
            if not span_lines or not decode_lines:
                continue
            first_span = min(span_lines)
            if any(line <= first_span for line in adopt_lines):
                continue
            findings.append(
                Finding(
                    rule="OB005",
                    path=file.rel_path,
                    line=first_span,
                    symbol=enclosing_symbol(file.tree, first_span),
                    message=(
                        "handler decodes a request but opens its span "
                        "without adopting the propagated trace context — "
                        "remote requests would root disjoint traces"
                    ),
                    hint=(
                        "parse_trace_context(meta) + `with "
                        "adopt_remote_context(...):` before tracer.span "
                        "(see remote/server.py handle_bytes)"
                    ),
                )
            )
    return findings


def _check_late_attr_writes(program: Program) -> list[Finding]:
    """OB005b: ``span.set(...)`` on a statement *after* the ``with`` block
    that bound the span — the span already finished (and may already be
    exported), so the write is lost or races the exporter."""
    findings: list[Finding] = []

    def visit_block(file: SourceFile, statements: list[ast.stmt]) -> None:
        closed: set[str] = set()
        for statement in statements:
            if closed:
                for node in ast.walk(statement):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "set"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in closed
                    ):
                        findings.append(
                            Finding(
                                rule="OB005",
                                path=file.rel_path,
                                line=node.lineno,
                                symbol=enclosing_symbol(
                                    file.tree, node.lineno
                                ),
                                message=(
                                    f"span attribute written after the span "
                                    f"closed: "
                                    f"{node.func.value.id}.set(...) follows "
                                    f"the `with` block that finished it"
                                ),
                                hint="move the .set(...) inside the with block",
                            )
                        )
            for child in (
                getattr(statement, "body", None),
                getattr(statement, "orelse", None),
                getattr(statement, "finalbody", None),
            ):
                if isinstance(child, list) and child:
                    visit_block(file, child)
            for handler in getattr(statement, "handlers", []) or []:
                visit_block(file, handler.body)
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                for item in statement.items:
                    context = item.context_expr
                    if (
                        isinstance(context, ast.Call)
                        and isinstance(context.func, ast.Attribute)
                        and context.func.attr == "span"
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        closed.add(item.optional_vars.id)

    # Recursing through `body`/`orelse`/`finalbody`/`handlers` from the
    # module body reaches every nested block (functions and classes carry
    # their statements in `body` too), each exactly once.
    for file in program.files:
        visit_block(file, file.tree.body)
    return findings


def _ops_covering_names(file: SourceFile) -> set[str]:
    """Names whose value enumerates (at least) every protocol op:
    ``OPS``/``OP_TABLE`` plus any ``x = (*OPS, ...)``-shaped alias."""
    names = {"OPS", "OP_TABLE"}
    grew = True
    while grew:
        grew = False
        for node in ast.walk(file.tree):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id not in names
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                continue
            for elt in node.value.elts:
                if (
                    isinstance(elt, ast.Starred)
                    and isinstance(elt.value, ast.Name)
                    and elt.value.id in names
                ):
                    names.add(node.targets[0].id)
                    grew = True
    return names


def _check_histogram_coverage(program: Program) -> list[Finding]:
    """OB006: a request-latency histogram with an ``op`` label must
    resolve per-op children by iterating the OPS table — an explicit
    subset would leave new ops without sliding-window percentiles."""
    if find_op_table(program) is None:
        return []
    findings: list[Finding] = []
    for file in program.files:
        latency_vars: dict[str, int] = {}
        for node in ast.walk(file.tree):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "histogram"
                and node.value.args
                and isinstance(node.value.args[0], ast.Constant)
                and isinstance(node.value.args[0].value, str)
            ):
                continue
            name = node.value.args[0].value
            labels = _label_names(node.value) or ()
            if name.endswith("_seconds") and "op" in labels:
                latency_vars[node.targets[0].id] = node.lineno
        if not latency_vars:
            continue
        covering = _ops_covering_names(file)
        for var, line in latency_vars.items():
            covered = False
            for node in ast.walk(file.tree):
                if not (
                    isinstance(node, ast.DictComp)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "labels"
                    and isinstance(node.value.func.value, ast.Name)
                    and node.value.func.value.id == var
                ):
                    continue
                for generator in node.generators:
                    if (
                        isinstance(generator.iter, ast.Name)
                        and generator.iter.id in covering
                    ):
                        covered = True
            if not covered:
                findings.append(
                    Finding(
                        rule="OB006",
                        path=file.rel_path,
                        line=line,
                        symbol=enclosing_symbol(file.tree, line),
                        message=(
                            "per-op latency histogram children are not "
                            "resolved by iterating the protocol OPS table — "
                            "a new op would serve without percentiles"
                        ),
                        hint=(
                            "build the child map with a comprehension over "
                            "OPS (or an `(*OPS, ...)` alias), as "
                            "remote/server.py does for repro_request_seconds"
                        ),
                    )
                )
    return findings


def check(program: Program) -> list[Finding]:
    return (
        _check_names(program)
        + _check_conflicts(program)
        + _check_spans(program)
        + _check_lineage_fields(program)
        + _check_handler_adoption(program)
        + _check_late_attr_writes(program)
        + _check_histogram_coverage(program)
    )


__all__ = ["check"]
