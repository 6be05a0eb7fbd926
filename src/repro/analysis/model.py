"""Findings, suppressions, baselines, and source loading.

Everything here is rule-agnostic plumbing: a :class:`Finding` is what a
rule emits; a :class:`SourceFile` is a parsed module plus its
suppression comments; a :class:`Baseline` grandfathers findings by a
stable fingerprint so line drift does not invalidate it.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from . import conventions

_LINE_REF_RE = re.compile(r"\b(?:line\s+)?\d+\b")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  #: e.g. ``"LK002"``
    path: str  #: repo-relative, ``/`` separators
    line: int  #: 1-based
    symbol: str  #: enclosing qualname (``Class.method``) or ``"<module>"``
    message: str
    hint: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining: rule + file + symbol + a
        digest of the message with line numbers stripped, so findings
        survive unrelated edits that shift lines."""
        normalized = _LINE_REF_RE.sub("<n>", self.message)
        digest = hashlib.sha256(
            f"{self.rule}|{self.path}|{self.symbol}|{normalized}".encode()
        ).hexdigest()[:12]
        return f"{self.rule}:{Path(self.path).name}:{self.symbol}:{digest}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "hint": self.hint,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


class SourceFile:
    """One parsed module: AST, module name, and suppression map."""

    def __init__(self, path: Path, rel_path: str, module: str, text: str):
        self.path = path
        self.rel_path = rel_path
        self.module = module
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        #: line -> set of rule ids (or ``{"*"}``) suppressed on it.
        self.suppressions = _parse_suppressions(text)
        #: line of each ``def`` -> (first body line, last line) so a
        #: suppression on the ``def`` line covers the whole function.
        self.def_spans = _function_spans(self.tree)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """A finding is suppressed by a comment on its own line, on the
        line directly above, or on its enclosing ``def`` line."""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if rules and ("*" in rules or rule in rules):
                return True
        for def_line, (start, end) in self.def_spans.items():
            if start <= line <= end:
                rules = self.suppressions.get(def_line)
                if rules and ("*" in rules or rule in rules):
                    return True
        return False


def _parse_suppressions(text: str) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = conventions.SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            rules = {
                part.strip()
                for part in match.group("rules").split(",")
                if part.strip()
            }
            out.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenizeError:
        pass
    return out


def _function_spans(tree: ast.AST) -> dict[int, tuple[int, int]]:
    spans: dict[int, tuple[int, int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = getattr(node, "end_lineno", node.lineno)
            spans[node.lineno] = (node.lineno, end or node.lineno)
    return spans


def load_source_tree(root: Path, package: str | None = None) -> list[SourceFile]:
    """Parse every ``*.py`` under ``root`` (a package directory).

    Module names are qualified with the package name (``root``'s
    directory name unless ``package`` overrides it), so analyzing
    ``src/repro`` yields modules named ``repro.hub.hub`` etc.
    """
    root = root.resolve()
    prefix = package if package is not None else root.name
    files: list[SourceFile] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        parts = [prefix, *rel.parts]
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        module = ".".join(parts)
        rel_path = "/".join([prefix, *rel.parts])
        try:
            text = path.read_text(encoding="utf-8")
            files.append(SourceFile(path, rel_path, module, text))
        except (SyntaxError, UnicodeDecodeError):
            continue  # not analyzable; other tooling reports parse errors
    return files


@dataclass
class Baseline:
    """Grandfathered findings, keyed by fingerprint, with justifications."""

    entries: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        entries = {
            entry["fingerprint"]: entry for entry in data.get("findings", [])
        }
        return cls(entries=entries)

    def contains(self, finding: Finding) -> bool:
        return finding.fingerprint in self.entries

    @staticmethod
    def write(path: Path, findings: list[Finding], justification: str = "") -> None:
        payload = {
            "comment": (
                "Grandfathered `repro lint` findings. Each entry should carry a "
                "justification; remove entries as the code they cover is fixed. "
                "Regenerate with `repro lint --write-baseline`."
            ),
            "findings": [
                {
                    "fingerprint": finding.fingerprint,
                    "rule": finding.rule,
                    "path": finding.path,
                    "symbol": finding.symbol,
                    "message": finding.message,
                    "justification": justification,
                }
                for finding in sorted(
                    findings, key=lambda f: (f.path, f.rule, f.line)
                )
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
