"""Running the lock-discipline rules and rendering/baselining the findings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import rules_locks
from .callgraph import Program
from .model import Baseline, Finding, SourceFile, load_source_tree

#: Every rule id with a one-line description (``repro lint --list-rules``).
RULES: dict[str, str] = {
    "LK001": "lock-order inversion (potential deadlock)",
    "LK002": "blocking call (file/socket I/O, sleep) under a mutex",
    "LK003": "exclusive acquisition nested inside a shared RWLock hold",
    "LK004": "wait() on a foreign object while holding a lock",
}


@dataclass
class LintResult:
    """Outcome of one analysis run, after suppressions and baseline."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files": self.files,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files} file(s)"
            f" ({self.suppressed} suppressed, {self.baselined} baselined)"
        )
        if lines:
            return "\n".join([*lines, summary])
        return "lint clean: " + summary

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_rules(files: list[SourceFile]) -> list[Finding]:
    """All raw findings over already-loaded sources (no filtering)."""
    findings = rules_locks.check(Program(files))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def run_lint(
    root: Path,
    baseline: Baseline | None = None,
    rules: list[str] | None = None,
    package: str | None = None,
) -> LintResult:
    """Analyze the package at ``root`` and apply suppressions/baseline.

    ``rules`` filters to specific rule ids or prefixes (``LK``,
    ``LK002``); ``baseline`` grandfathers findings by fingerprint.
    """
    files = load_source_tree(root, package=package)
    by_path = {file.rel_path: file for file in files}
    result = LintResult(files=len(files))
    for finding in run_rules(files):
        if rules and not any(finding.rule.startswith(rule) for rule in rules):
            continue
        source = by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding.rule, finding.line):
            result.suppressed += 1
            continue
        if baseline is not None and baseline.contains(finding):
            result.baselined += 1
            continue
        result.findings.append(finding)
    return result
