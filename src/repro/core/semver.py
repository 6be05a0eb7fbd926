"""Semantic versions: ``branch@schema.increment`` (paper section IV-B).

A semantic version in MLCask is the identifier ``branch@schema.increment``
where ``branch`` carries the Git-like branch semantics, ``schema`` denotes
the output data schema, and ``increment`` counts minor changes that do not
affect the output schema. The paper's notational conventions are honored:

* components on ``master`` may omit the branch: ``<feature_extract, 0.1>``;
* the initial version of a committed library is ``0.0``;
* commits bump only ``increment`` unless the schema changed, in which case
  ``schema`` bumps and ``increment`` resets to 0;
* pipeline versions use the dotted rendering ``branch.schema.increment``
  (``master.0.2`` in Fig. 3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import VersionError

MASTER = "master"

_VERSION_RE = re.compile(
    r"^(?:(?P<branch>[A-Za-z0-9_\-]+)@)?(?P<schema>\d+)\.(?P<increment>\d+)$"
)
_DOTTED_RE = re.compile(
    r"^(?P<branch>[A-Za-z0-9_\-]+)\.(?P<schema>\d+)\.(?P<increment>\d+)$"
)


@dataclass(frozen=True)
class SemVer:
    """Immutable ``branch@schema.increment`` identifier."""

    branch: str = MASTER
    schema: int = 0
    increment: int = 0

    def __post_init__(self) -> None:
        if not self.branch:
            raise VersionError("branch name must be non-empty")
        if self.schema < 0 or self.increment < 0:
            raise VersionError(
                f"schema/increment must be non-negative, got {self.schema}.{self.increment}"
            )

    # ------------------------------------------------------------- rendering
    def __str__(self) -> str:
        """Paper notation: branch omitted on master."""
        if self.branch == MASTER:
            return f"{self.schema}.{self.increment}"
        return f"{self.branch}@{self.schema}.{self.increment}"

    @property
    def full(self) -> str:
        """Always-explicit rendering, branch included."""
        return f"{self.branch}@{self.schema}.{self.increment}"

    @property
    def dotted(self) -> str:
        """Pipeline-version rendering: ``master.0.2``."""
        return f"{self.branch}.{self.schema}.{self.increment}"

    @property
    def number(self) -> str:
        """Just ``schema.increment`` (what Figs. 2-4 print inside nodes)."""
        return f"{self.schema}.{self.increment}"

    # --------------------------------------------------------------- parsing
    @classmethod
    def parse(cls, text: str) -> "SemVer":
        """Parse ``branch@schema.increment`` or bare ``schema.increment``."""
        match = _VERSION_RE.match(text.strip())
        if not match:
            raise VersionError(f"cannot parse semantic version {text!r}")
        return cls(
            branch=match.group("branch") or MASTER,
            schema=int(match.group("schema")),
            increment=int(match.group("increment")),
        )

    @classmethod
    def parse_dotted(cls, text: str) -> "SemVer":
        """Parse the pipeline rendering ``branch.schema.increment``."""
        match = _DOTTED_RE.match(text.strip()) if isinstance(text, str) else None
        if not match:
            raise VersionError(f"cannot parse dotted version {text!r}")
        return cls(
            branch=match.group("branch"),
            schema=int(match.group("schema")),
            increment=int(match.group("increment")),
        )

    # ---------------------------------------------------------------- bumps
    def bump_increment(self) -> "SemVer":
        """Minor update: output schema unchanged."""
        return SemVer(self.branch, self.schema, self.increment + 1)

    def bump_schema(self) -> "SemVer":
        """Output-schema-changing update; increment resets to 0."""
        return SemVer(self.branch, self.schema + 1, 0)

    def on_branch(self, branch: str) -> "SemVer":
        """Same numbers, different branch (used when merging duplicates
        the MERGE_HEAD tip onto HEAD, section V)."""
        return SemVer(branch, self.schema, self.increment)

    # ------------------------------------------------------------- ordering
    def newer_than(self, other: "SemVer") -> bool:
        """Schema-then-increment comparison, ignoring branch."""
        return (self.schema, self.increment) > (other.schema, other.increment)

    def same_schema(self, other: "SemVer") -> bool:
        return self.schema == other.schema


INITIAL_VERSION = SemVer()  # 0.0 on master, per section IV-B
