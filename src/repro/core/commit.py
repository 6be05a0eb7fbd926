"""Pipeline commits: immutable snapshots of a pipeline version.

A commit records which component version sits at every stage, where each
stage's archived output lives, the evaluation metrics of the run, and the
lineage edges (parent commits). Fig. 2/3 of the paper draw exactly these
objects: boxes like ``master.0.1`` holding a component-version table, with
"pipeline sequence" edges (same-branch succession) and "pipeline lineage"
edges (branch/merge parentage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..storage.hashing import fingerprint_many
from .semver import SemVer


@dataclass(frozen=True)
class PipelineCommit:
    """One immutable pipeline version."""

    commit_id: str
    pipeline: str
    version: SemVer = field(  # a row holds it dotted
        metadata={"encode": lambda version: version.dotted, "decode": SemVer.parse_dotted}
    )
    branch: str
    parents: tuple[str, ...]
    component_versions: dict = field(compare=False)  # stage -> component identifier
    component_fingerprints: dict = field(compare=False)  # stage -> fingerprint
    stage_outputs: dict = field(default_factory=dict, compare=False)
    metrics: dict = field(default_factory=dict, compare=False)
    score: float | None = None
    message: str = ""
    author: str = ""
    sequence: int = 0  # logical timestamp: total order of commit creation

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``master.0.2`` or ``Frank-dev.0.1``."""
        return self.version.dotted

    def component_at(self, stage: str) -> str:
        return self.component_versions[stage]

    def describe(self) -> str:
        parts = ", ".join(
            f"{stage}: {identifier}"
            for stage, identifier in self.component_versions.items()
        )
        score = f" score={self.score:.4f}" if self.score is not None else ""
        return f"{self.label} [{parts}]{score}"


def make_commit_id(
    pipeline: str,
    version: SemVer,
    parents: tuple[str, ...],
    component_fingerprints: dict,
) -> str:
    """Content-derived commit id (stable across processes)."""
    parts = ["commit", pipeline, version.dotted, *parents]
    for stage in sorted(component_fingerprints):
        parts.append(f"{stage}={component_fingerprints[stage]}")
    return fingerprint_many(parts)
