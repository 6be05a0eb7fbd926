"""Static analysis over the repository's own source (``repro lint``).

This package encodes the lock discipline of the serving layers — RWLock
writer preference, the hub-global versus per-tenant lock split, "I/O
outside the lock" — as executable lint rules instead of review lore:
the one family of invariants with no run-time equivalent (a lock-order
inversion only shows under contention). Protocol and telemetry
contracts are *not* linted; the op table, the metrics registry, the
span, the SLO loader and the lineage record refuse a mistake where it
is declared (``docs/invariants.md`` has the table). The analyzer is
self-contained: purely syntactic (:mod:`ast` + :mod:`tokenize`), never
imports the code under analysis, no third-party dependencies.

Layout:

``conventions``
    The *naming contract* the analyzer recognizes (lock attribute
    names, RWLock method names, the blocking-call vocabulary).
    Documented once, here, so idiom recognition is contract, not
    heuristic.
``model``
    Findings, inline suppressions, baselines, source loading.
``callgraph``
    Per-function lock-acquisition events and a resolvable call graph.
``rules_locks``
    The rule pack (LK* rule ids).
``report``
    Text/JSON rendering and baseline application.
``cli``
    The ``repro lint`` verb.
"""

from .model import Baseline, Finding, load_source_tree
from .report import LintResult, run_lint

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "load_source_tree",
    "run_lint",
]
