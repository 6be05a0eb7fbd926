"""Append-only lineage ledger: who produced what, from what, and when.

Every checkpoint *event* — a stage executed into the store, or a stage
reused out of it (including single-flight joins) — appends one
:class:`LineageRecord` to the repository's :class:`LineageLedger`. The
ledger is the provenance counterpart of the checkpoint index: the index
says *what is archived*, the ledger says *how it got there* (component
identity and version, the exact upstream artifact refs consumed, the run
seed, and wall/CPU cost).

Capture follows Grafberger's instrumentation angle: lineage falls out of
execution as a side effect, at near-zero cost, and is assembled into a
queryable DAG only on demand (:mod:`repro.provenance.queries`).

Invariants (see ``docs/invariants.md``):

* **append-only** — records are never deleted. GC marks records for
  swept checkpoints ``collected`` instead of dropping them; the audit
  trail of an artifact outlives the artifact.
* exactly two amendments are allowed after append, both monotonic:
  ``commit_id``/``branch`` are back-filled once when a commit adopts the
  run's outputs, and ``collected`` flips False→True when the referenced
  checkpoint is swept. Every other field is immutable.
* records are emitted in **topological stage order per run**, by both
  executors, so the ledger is bit-identical (modulo timing) between
  `Executor` and `ParallelExecutor` for any worker count.

Concurrency: one small mutex guards the record list, the dedup set and
the secondary indexes; ``revision`` increments on every mutation and is
the staleness token response caches key on (the same contract as
:class:`repro.core.checkpoint.CheckpointStore`). Nothing blocking runs
under the lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace


#: ``via`` values a record can carry: the stage ran, or an archived
#: output was adopted (direct lookup hit, single-flight join, or
#: flight-level re-check hit — all reuses from the ledger's viewpoint).
EXECUTED = "executed"
REUSED = "reused"

VIA_VALUES = (EXECUTED, REUSED)


@dataclass(frozen=True, kw_only=True)
class LineageRecord:
    """One checkpoint event: a stage's output entering (or being adopted
    from) the archive.

    Keyword-only, and the twelve identity fields have no defaults: a
    construction site that drops one is a ``TypeError``, not a record
    unanchored in the lineage DAG. Only the amendments back-filled
    later (``commit_id``/``branch``, timing, ``collected``) default.

    Timing fields (``wall_seconds``/``cpu_seconds``) and the GC
    annotation (``collected``) are excluded from equality/hash — two
    records are *the same event* if everything else matches, which is
    what sync-import dedup and the executor differential tests compare.

    A row (journal and wire alike, :mod:`repro.codec`) may omit any of
    the five amendments, which then take their defaults.
    """

    #: Retired request-trace ids: still written, always empty, and
    #: ignored on read, so the journal and the wire keep their bytes
    #: without a format bump.
    WIRE_CONSTANTS = {"trace_id": "", "span_id": ""}

    checkpoint_key: str
    stage: str
    pipeline: str
    component_id: str
    component_fingerprint: str
    component_version: str
    params_digest: str
    input_refs: tuple[str, ...]
    output_ref: str
    seed: int
    tenant: str
    via: str
    wall_seconds: float = field(default=0.0, compare=False, metadata={"optional": True})
    cpu_seconds: float = field(default=0.0, compare=False, metadata={"optional": True})
    commit_id: str = field(default="", metadata={"optional": True})
    branch: str = field(default="", metadata={"optional": True})
    collected: bool = field(default=False, compare=False, metadata={"optional": True})


class LineageLedger:
    """Per-repository append-only store of :class:`LineageRecord`\\ s.

    Local runs :meth:`append` (never deduplicated — a warm re-run is a
    new reuse event); remote sync :meth:`import_record`\\ s (idempotent,
    so records pushed and pulled back do not double). ``revision`` is
    the cache staleness token, mirroring the checkpoint store.
    """

    def __init__(self, tenant: str = ""):
        self._lock = threading.Lock()
        self._records: list[LineageRecord] = []
        #: identities already held (dataclass eq/hash, timing excluded);
        #: import-side dedup only — local appends always land.
        self._seen: set[LineageRecord] = set()
        self._by_output: dict[str, list[int]] = {}
        self._by_commit: dict[str, list[int]] = {}
        self.revision = 0
        #: Lowest row amended in place since the last save (None: none);
        #: a journal that already holds that row cannot be appended to.
        self.amended_from: int | None = None
        #: stamped onto records appended by local runs; a hub hosting
        #: this repo sets it so hub-side executions carry their tenant.
        self.tenant = tenant
        #: registry counter child mirroring appends+imports (see
        #: :meth:`bind_registry`); None (the default) mirrors nowhere.
        self._mirror = None

    # ------------------------------------------------------------ metrics
    def bind_registry(self, registry, tenant: str = "-", repo: str = "-"):
        """Mirror record arrivals into ``registry`` as a per-tenant/repo
        ``repro_lineage_records_total`` series (the pattern of
        :meth:`repro.storage.accounting.StorageStats.bind_registry`).
        Binding to the null registry unbinds. Returns ``self``."""
        from ..obs.metrics import NULL_METRIC

        child = registry.counter(
            "repro_lineage_records_total",
            "Lineage records appended or imported into the ledger.",
            labels=("tenant", "repo"),
        ).labels(tenant=str(tenant), repo=str(repo))
        self._mirror = None if child is NULL_METRIC else child
        return self

    # ------------------------------------------------------------- access
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self, start: int = 0) -> tuple[LineageRecord, ...]:
        """Snapshot of the records from row ``start`` on, append order
        (oldest first)."""
        with self._lock:
            return tuple(self._records[start:])

    def outputs(self) -> set[str]:
        """Every output ref the ledger has seen produced or adopted."""
        with self._lock:
            return set(self._by_output)

    def rows_for_output(self, ref: str) -> tuple[LineageRecord, ...]:
        with self._lock:
            return tuple(self._records[i] for i in self._by_output.get(ref, ()))

    def records_for_commits(self, commit_ids) -> list[LineageRecord]:
        """Records back-filled with one of ``commit_ids`` (what rides a
        push/fetch pack alongside those commits), append order."""
        wanted = set(commit_ids)
        with self._lock:
            rows = sorted(
                row for cid in wanted for row in self._by_commit.get(cid, ())
            )
            return [self._records[row] for row in rows]

    def collected_count(self) -> int:
        with self._lock:
            return sum(1 for r in self._records if r.collected)

    # ------------------------------------------------------------ mutation
    def _amend_locked(self, row: int, record: LineageRecord) -> None:
        self._records[row] = record
        if self.amended_from is None or row < self.amended_from:
            self.amended_from = row

    def _index_locked(self, row: int, record: LineageRecord) -> None:
        self._seen.add(record)
        self._by_output.setdefault(record.output_ref, []).append(row)
        if record.commit_id:
            self._by_commit.setdefault(record.commit_id, []).append(row)

    def append(self, record: LineageRecord) -> int:
        """Append one event; returns its row index. Never deduplicates —
        every run's reuse is its own event."""
        with self._lock:
            row = len(self._records)
            self._records.append(record)
            self._index_locked(row, record)
            self.revision += 1
        if self._mirror is not None:
            self._mirror.inc()
        return row

    def record_run(self, instance, report, refs: dict, seed: int = 0) -> tuple[int, ...]:
        """Append one record per non-failed stage of a finished run.

        Called by ``Executor._report`` (the one report assembly, under
        every executor) *after* stage processing, walking
        ``report.stage_reports`` — built in topological order, trimmed
        to the failure prefix — so ledger order is independent of
        execution interleaving (the bit-identity contract). ``refs``
        maps each stage to its settled output ref; predecessors' refs
        become the record's ``input_refs``.
        """
        rows = []
        for stage_report in report.stage_reports:
            if stage_report.failed or not stage_report.output_ref:
                continue
            stage = stage_report.stage
            component = instance.component(stage)
            preds = instance.spec.predecessors(stage)
            record = LineageRecord(
                checkpoint_key=stage_report.checkpoint_key,
                stage=stage,
                pipeline=report.pipeline,
                component_id=component.identifier,
                component_fingerprint=component.fingerprint,
                component_version=component.version.full,
                params_digest=component.params_digest,
                input_refs=tuple(refs[p] for p in preds),
                output_ref=stage_report.output_ref,
                seed=seed,
                tenant=self.tenant,
                via=REUSED if stage_report.reused else EXECUTED,
                wall_seconds=stage_report.run_seconds,
                cpu_seconds=stage_report.cpu_seconds,
            )
            rows.append(self.append(record))
        return tuple(rows)

    def annotate_commit(self, commit_id: str, branch: str, rows) -> None:
        """Back-fill the adopting commit onto the given rows (once: a row
        already bound to a commit is left alone)."""
        with self._lock:
            changed = False
            for row in rows:
                record = self._records[row]
                if record.commit_id:
                    continue
                amended = replace(record, commit_id=commit_id, branch=branch)
                self._amend_locked(row, amended)
                self._seen.add(amended)
                self._by_commit.setdefault(commit_id, []).append(row)
                changed = True
            if changed:
                self.revision += 1

    def mark_collected(self, live_refs) -> int:
        """Flag records whose output no longer exists (GC swept it).

        The records themselves are retained — provenance of an artifact
        survives the artifact. Returns how many records were newly
        flagged."""
        with self._lock:
            flagged = 0
            for row, record in enumerate(self._records):
                if record.collected or record.output_ref in live_refs:
                    continue
                self._amend_locked(row, replace(record, collected=True))
                flagged += 1
            if flagged:
                self.revision += 1
        return flagged

    def import_record(self, record: LineageRecord) -> bool:
        """Adopt a record from a peer (push/fetch) or from disk;
        idempotent — returns False when the event is already held."""
        with self._lock:
            if record in self._seen:
                return False
            row = len(self._records)
            self._records.append(record)
            self._index_locked(row, record)
            self.revision += 1
        if self._mirror is not None:
            self._mirror.inc()
        return True

    def import_entries(self, records) -> int:
        """Import records decoded from a pack or a journal; returns how
        many were new."""
        return sum(map(self.import_record, records))
