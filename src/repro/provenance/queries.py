"""Lineage queries: the retrospective-audit and what-if APIs.

These functions assemble the ledger's flat event log into answers,
against a repository (they consult the commit graph and branch heads as
well as the ledger — the commits that *consumed* an artifact live in the
graph, which already rides sync, so consumption is never duplicated
into ledger state):

* :func:`lineage_of` — "what fed this artifact?": the full upstream
  closure of a checkpointed output, plus the commits/merges that
  consumed it;
* :func:`consumers_of` — "who read this artifact?": direct downstream
  records and consuming commits;
* :func:`impact_of` — "what breaks if I bump this component?": the
  downstream invalidation set (checkpoints, commits, branch heads) of a
  component's outputs — Kramer's what-if surface.

All results are plain JSON-able dicts: the ``lineage`` RPC op serves
them verbatim and the CLI renders them, so wire, disk, and terminal
agree field-for-field.
"""

from __future__ import annotations

from ..codec import encode
from ..errors import LineageNotFoundError
from .ledger import LineageLedger, LineageRecord


def _ledger_of(repo) -> LineageLedger:
    ledger = getattr(repo, "lineage", None)
    if ledger is None:
        raise LineageNotFoundError("repository has no lineage ledger")
    return ledger


def resolve_output_ref(repo, ref: str) -> str:
    """Accept a full output ref or an unambiguous prefix (commit-id
    ergonomics, same spirit as ``MLCask._resolve_ref``)."""
    outputs = _ledger_of(repo).outputs()
    if ref in outputs:
        return ref
    matches = sorted(o for o in outputs if o.startswith(ref))
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise LineageNotFoundError(f"no lineage recorded for ref {ref!r}")
    raise LineageNotFoundError(
        f"ambiguous ref prefix {ref!r} ({len(matches)} matches)"
    )


def _producers_by_output(records) -> dict[str, list[LineageRecord]]:
    producers: dict[str, list[LineageRecord]] = {}
    for record in records:
        producers.setdefault(record.output_ref, []).append(record)
    return producers


def _consumers_by_input(records) -> dict[str, list[LineageRecord]]:
    consumers: dict[str, list[LineageRecord]] = {}
    for record in records:
        for parent in record.input_refs:
            consumers.setdefault(parent, []).append(record)
    return consumers


def _node_of(ref: str, producers: list[LineageRecord]) -> dict:
    """One DAG node: an artifact ref plus what produced/adopted it."""
    executed = [r for r in producers if r.via == "executed"]
    head = executed[0] if executed else producers[0]
    return {
        "ref": ref,
        "stage": head.stage,
        "pipeline": head.pipeline,
        "component_id": head.component_id,
        "component_version": head.component_version,
        "params_digest": head.params_digest,
        "events": len(producers),
        "reuses": sum(1 for r in producers if r.via == "reused"),
        "collected": all(r.collected for r in producers),
    }


def _commit_summary(commit) -> dict:
    return {
        "commit_id": commit.commit_id,
        "pipeline": commit.pipeline,
        "branch": commit.branch,
        "label": commit.label,
        "merge": len(commit.parents) > 1,
        "message": commit.message,
    }


def _consuming_commits(repo, refs: set[str]) -> list[dict]:
    """Commits (incl. fast-forward/metric-driven merges) whose recorded
    stage outputs include any of ``refs``, oldest first."""
    hits = [
        commit
        for commit in repo.graph.all_commits()
        if refs.intersection(commit.stage_outputs.values())
    ]
    return [_commit_summary(c) for c in sorted(hits, key=lambda c: c.sequence)]


def lineage_of(repo, ref: str) -> dict:
    """Full upstream closure of ``ref``: every artifact that (transitively)
    fed it, the producing/adopting events, and the commits that consumed
    the artifact itself."""
    target = resolve_output_ref(repo, ref)
    records = _ledger_of(repo).records()
    producers = _producers_by_output(records)

    closure: list[str] = []
    seen = {target}
    queue = [target]
    edges: list[tuple[str, str]] = []
    edge_seen: set[tuple[str, str]] = set()
    while queue:
        current = queue.pop(0)
        closure.append(current)
        for record in producers.get(current, ()):
            for parent in record.input_refs:
                edge = (parent, current)
                if edge not in edge_seen:
                    edge_seen.add(edge)
                    edges.append(edge)
                if parent not in seen:
                    seen.add(parent)
                    queue.append(parent)

    return {
        "ref": target,
        "nodes": [_node_of(r, producers[r]) for r in closure if r in producers],
        "edges": [list(edge) for edge in edges],
        "records": [
            encode(record) for record in records if record.output_ref in seen
        ],
        "commits": _consuming_commits(repo, {target}),
    }


def consumers_of(repo, ref: str) -> dict:
    """Direct downstream readers of ``ref``: records that listed it as an
    input, and commits that recorded it as a stage output."""
    target = resolve_output_ref(repo, ref)
    records = _ledger_of(repo).records()
    consumers = [r for r in records if target in r.input_refs]
    return {
        "ref": target,
        "consumers": [encode(r) for r in consumers],
        "refs": sorted({r.output_ref for r in consumers}),
        "commits": _consuming_commits(repo, {target}),
    }


def impact_of(repo, component: str, version: str | None = None) -> dict:
    """What-if analysis: everything downstream of a component's outputs.

    ``component`` is a component name (``"readmission.scaler"``), a full
    identifier (``"readmission.scaler@master.0.1"``), or a stage name
    (``"scaler"``); ``version`` narrows the match to one version.
    Returns the transitive invalidation set: checkpoint refs that would
    have to recompute, the commits recording them, and the branch heads
    that depend on them."""
    records = _ledger_of(repo).records()
    matched = [
        r
        for r in records
        if (
            r.component_id == component
            or r.component_id.split("@", 1)[0] == component
            or r.stage == component
        )
        and (version is None or r.component_version == version)
    ]
    if not matched:
        raise LineageNotFoundError(
            f"no lineage recorded for component {component!r}"
            + (f" version {version!r}" if version else "")
        )

    consumers = _consumers_by_input(records)
    seeds = {r.output_ref for r in matched}
    invalidated: set[str] = set()
    queue = sorted(seeds)
    while queue:
        current = queue.pop(0)
        if current in invalidated:
            continue
        invalidated.add(current)
        for record in consumers.get(current, ()):
            if record.output_ref not in invalidated:
                queue.append(record.output_ref)

    affected_branches = []
    for pipeline in repo.branches.pipelines():
        for branch in repo.branches.branches(pipeline):
            head = repo.graph.get(repo.branches.head(pipeline, branch))
            if invalidated.intersection(head.stage_outputs.values()):
                affected_branches.append({"pipeline": pipeline, "branch": branch})

    downstream = sorted(invalidated - seeds)
    return {
        "component": component,
        "version": version,
        "matched_versions": sorted({r.component_version for r in matched}),
        "outputs": sorted(seeds),
        "invalidated": downstream,
        "stages": sorted(
            {r.stage for r in records if r.output_ref in invalidated}
        ),
        "commits": _consuming_commits(repo, invalidated),
        "branches": affected_branches,
    }
