"""Provenance subsystem: checkpoint-level lineage capture and queries.

The ledger (:mod:`repro.provenance.ledger`) captures one record per
checkpoint event as a side effect of execution; the query layer
(:mod:`repro.provenance.queries`) assembles the records into lineage
DAGs, audit answers, and what-if impact sets on demand. See ROADMAP
item 5 and ``docs/observability.md``.
"""

from .ledger import (
    EXECUTED,
    REUSED,
    LineageLedger,
    LineageRecord,
)
from .queries import (
    consumers_of,
    impact_of,
    lineage_of,
    resolve_output_ref,
)

__all__ = [
    "EXECUTED",
    "REUSED",
    "LineageLedger",
    "LineageRecord",
    "consumers_of",
    "impact_of",
    "lineage_of",
    "resolve_output_ref",
]
