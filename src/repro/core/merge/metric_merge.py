"""The metric-driven merge operation (paper sections V-VI).

``p_merged = argmax { score(p) : p ∈ P_candidate }``

Pipeline: build the merge scope (search spaces anchored at the common
ancestor), construct the pipeline search tree (Algorithm 1), prune it with
the compatibility LUT (PC) and the history checkpoints (PR) according to
the requested mode, execute the surviving candidates (Algorithm 2's
depth-first walk or a prioritized/random search, one loop), and commit
the winner on the HEAD branch with both tips as parents.

Modes reproduce the paper's ablations (section VII-B):

* ``"pcpr"``    — full MLCask: PC + PR, reusable outputs via the chunked store;
* ``"pc_only"`` — "MLCask w/o PR": incompatible candidates pruned up front,
  every surviving pipeline executed from scratch into folder archives;
* ``"none"``    — "MLCask w/o PCPR": every combination executed from
  scratch; incompatibilities surface as runtime failures mid-pipeline.
"""

from __future__ import annotations

from ...errors import MergeError, NoCandidateError
from ..checkpoint import FolderCheckpointStore
from ..context import ExecutionContext
from ..executor import Executor, score_from_metric
from ..pipeline import PipelineInstance
from .compatibility import build_compatibility_lut, prune_incompatible
from .prioritized import check_search_bounds, run_ordered_search
from .pruning import mark_checkpointed_nodes
from .search_space import build_merge_scope
from .tree import build_search_tree, count_candidates

MERGE_MODES = ("pcpr", "pc_only", "none")
SEARCH_METHODS = ("exhaustive", "prioritized", "random")


def winners_by_metric(evaluations, metric_names):
    """Best candidate per metric (paper section V: "If there are different
    metrics for evaluation, MLCask generates different optimal pipeline
    solutions for different metrics so that users could select").

    Returns ``{metric: (evaluation, score)}`` over the candidates whose
    runs recorded that metric.
    """
    winners = {}
    for metric in metric_names:
        best = None
        best_score = None
        for evaluation in evaluations:
            if evaluation.report is None or evaluation.report.failed:
                continue
            if metric not in evaluation.report.metrics:
                continue
            score = score_from_metric(metric, evaluation.report.metrics[metric])
            if best_score is None or score > best_score:
                best, best_score = evaluation, score
        if best is not None:
            winners[metric] = (best, best_score)
    return winners


def metric_driven_merge(
    repo,
    pipeline: str,
    head_branch: str,
    merge_head_branch: str,
    mode: str = "pcpr",
    search: str = "exhaustive",
    budget: int | None = None,
    time_budget_seconds: float | None = None,
    message: str = "",
    seed: int = 0,
    workers: int = 1,
):
    """Run the merge and return a :class:`repro.core.repository.MergeOutcome`.

    Every search — the exhaustive walk (Algorithm 2's depth-first
    order) and the ordered searches — runs through
    :func:`~.prioritized.run_ordered_search`. Every candidate runs on
    the calling thread, one at a time. ``workers`` is the width ``W`` of
    the ordered searches' draw window (draw ``j`` sees results
    ``0 .. j - W``); ``budget`` (at least 1) and ``time_budget_seconds``
    (non-negative) bound the ordered searches only. Each argument is
    checked before anything runs.
    """
    from ..repository import MergeOutcome

    if mode not in MERGE_MODES:
        raise MergeError(f"unknown merge mode {mode!r}; pick one of {MERGE_MODES}")
    if search not in SEARCH_METHODS:
        raise MergeError(f"unknown search {search!r}; pick one of {SEARCH_METHODS}")
    try:
        check_search_bounds(workers, time_budget_seconds)
    except ValueError as exc:
        raise MergeError(str(exc)) from None
    if budget is not None and budget < 1:
        raise MergeError(f"budget must be >= 1, got {budget}")
    if search == "exhaustive":
        for name, value, default in (
            ("workers", workers, 1),
            ("budget", budget, None),
            ("time_budget_seconds", time_budget_seconds, None),
        ):
            if value != default:
                raise MergeError(
                    f"the exhaustive search evaluates every candidate in order; "
                    f"{name} applies to search='prioritized' or 'random'"
                )

    head = repo.head_commit(pipeline, head_branch)
    merge_head = repo.head_commit(pipeline, merge_head_branch)
    scope = build_merge_scope(
        repo.graph, repo.registry, repo.spec(pipeline), head, merge_head
    )

    root = build_search_tree(scope)
    candidates_total = count_candidates(root)

    pruned = 0
    if mode in ("pcpr", "pc_only"):
        lut = build_compatibility_lut(scope)
        pruned = prune_incompatible(root, lut, scope.spec)
    if mode == "pcpr":
        mark_checkpointed_nodes(root, scope)
        # Candidate evaluations write through the repo's real stores, so
        # they leave lineage too; the winning candidate's rows get the
        # merge commit back-filled in _store_commit. Ablation modes run
        # against throwaway folder archives and record no lineage.
        executor = Executor(
            repo.checkpoints, metric=repo.metric, reuse=True, lineage=repo.lineage
        )
    else:
        # Ablations re-execute everything and archive full copies per run,
        # like the paper's w/o-PR and w/o-PCPR variants.
        executor = Executor(FolderCheckpointStore(), metric=repo.metric, reuse=False)

    context = ExecutionContext(seed=seed, metric=repo.metric)
    evaluations = run_ordered_search(
        root,
        scope,
        executor,
        context,
        method=search,
        workers=workers,
        budget=budget,
        time_budget_seconds=time_budget_seconds,
        seed=seed,
    )

    viable = [e for e in evaluations if e.score is not None]
    if not viable:
        raise NoCandidateError(
            f"merge of {merge_head_branch} into {head_branch} found no viable pipeline"
        )
    best = max(viable, key=lambda e: e.score)

    instance = PipelineInstance(spec=scope.spec, components=dict(best.components))
    winner_report = best.report
    if winner_report is None:
        # The winner was scored from history, so the search never ran it.
        # The commit still records its stage outputs and metrics: resolve
        # them with one run, every stage a checkpoint hit. It is not a
        # candidate evaluation and joins none of the search's tallies.
        winner_report = executor.run(instance, context)
    commit = repo._store_commit(
        pipeline,
        head_branch,
        instance,
        (head.commit_id, merge_head.commit_id),
        winner_report,
        message or f"metric-driven merge of {merge_head_branch} (mode={mode})",
        score_override=best.score,
    )

    reports = [e.report for e in evaluations if e.report is not None]
    return MergeOutcome(
        commit=commit,
        fast_forward=False,
        winner_report=winner_report,
        candidates_total=candidates_total,
        candidates_pruned_incompatible=pruned,
        candidates_evaluated=len(evaluations),
        components_executed=sum(r.n_executed for r in reports),
        components_reused=sum(r.n_reused for r in reports),
        execution_seconds=sum(r.execution_seconds for r in reports),
        storage_seconds=sum(r.storage_seconds for r in reports),
        evaluations=evaluations,
    )
