"""Engine-backed merge experiment: multi-worker search wall-clock speedup.

The paper's PR/PCPR optimizations reduce *which* components a merge runs;
the parallel engine (ISSUE 3) additionally runs candidate pipelines
*concurrently*. This driver measures that second axis: one multi-leaf
merge scenario searched with 1, 2, and 4 workers, reporting wall-clock,
speedup over sequential, and — the part that makes the speedup safe — a
full equivalence check that every worker count found identical candidate
scores, identical stage output refs, and the same winner.

Component cost is *simulated service delay* (``time.sleep``, which
releases the GIL) rather than numpy compute: like the cost-model
benchmarks elsewhere in this repo, it stands in for the I/O- and
training-bound stages of the paper's real pipelines while keeping the
experiment deterministic and runnable on any box — including single-core
CI, where GIL-bound compute would show no thread speedup at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.component import DatasetComponent, LibraryComponent
from ..core.repository import MLCask
from ..core.semver import SemVer
from ..data.table import Table
from .report import format_table

_RAW = "pmerge/raw_v0"
_CLEAN = "pmerge/clean_v0"
_FEAT = "pmerge/feat_v0"


def _delayed_dataset(n_rows: int) -> DatasetComponent:
    def loader(rng, _n=n_rows):
        base = np.arange(_n, dtype=np.float64)
        return Table({"f0": base, "f1": base * 0.25, "label": (base % 2).astype(np.int64)})

    return DatasetComponent(
        name="pmerge.dataset",
        version=SemVer("master", 0, 0),
        loader=loader,
        output_schema=_RAW,
        content_key="pmerge-day0",
    )


def _clean_fn(table, params, rng):
    time.sleep(params["delay"])
    return table.with_column("f0", table["f0"] + params["idx"] * 0.001)


def _extract_fn(table, params, rng):
    time.sleep(params["delay"])
    return {
        "X": table.numeric_matrix(["f0", "f1"]) + params["idx"] * 0.001,
        "y": table["label"],
    }


def _model_fn(payload, params, rng):
    time.sleep(params["delay"])
    return {"metrics": {"accuracy": params["quality"]}, "params": {}}


def _version(stage: str, idx: int, delay: float, branch: str, quality: float = 0.0):
    fns = {"clean": _clean_fn, "extract": _extract_fn, "model": _model_fn}
    params = {"idx": idx, "delay": delay}
    schemas = {"clean": (_RAW, _CLEAN), "extract": (_CLEAN, _FEAT), "model": (_FEAT, "pmerge/model")}
    if stage == "model":
        params["quality"] = quality
    in_schema, out_schema = schemas[stage]
    return LibraryComponent(
        name=f"pmerge.{stage}",
        version=SemVer(branch, 0, idx),
        fn=fns[stage],
        params=params,
        input_schema=in_schema,
        output_schema=out_schema,
        is_model=stage == "model",
    )


def build_delayed_merge_repo(
    n_clean: int = 2,
    n_extract: int = 3,
    n_model: int = 4,
    stage_seconds: float = 0.03,
    model_seconds: float = 0.06,
    n_rows: int = 64,
    seed: int = 0,
) -> MLCask:
    """A two-branch history whose merge search tree has
    ``n_clean * n_extract * n_model`` leaves, every component carrying a
    simulated compute delay.

    History commits use ``run=False`` — no checkpoints, no history
    scores — so the merge starts cold and every candidate's cost is live,
    the worst case the parallel engine exists for. Model qualities are a
    deterministic function of the version triple, so every worker count
    must find the same winner.
    """
    repo = MLCask(metric="accuracy", seed=seed)
    spec_components = {
        "dataset": _delayed_dataset(n_rows),
        "clean": _version("clean", 0, stage_seconds, "master"),
        "extract": _version("extract", 0, stage_seconds, "master"),
        "model": _version("model", 0, model_seconds, "master", quality=_quality(0, 0, 0)),
    }
    from ..core.pipeline import PipelineSpec

    spec = PipelineSpec.chain("pmerge", ["dataset", "clean", "extract", "model"])
    repo.create_pipeline(spec, spec_components, run=False)
    repo.branch("pmerge", "dev", "master")
    for e in range(1, n_extract):
        repo.commit(
            "pmerge",
            {"extract": _version("extract", e, stage_seconds, "dev")},
            branch="dev",
            run=False,
        )
    for m in range(1, n_model):
        repo.commit(
            "pmerge",
            {"model": _version("model", m, model_seconds, "dev", quality=_quality(0, 0, m))},
            branch="dev",
            run=False,
        )
    for c in range(1, n_clean):
        repo.commit(
            "pmerge",
            {"clean": _version("clean", c, stage_seconds, "master")},
            branch="master",
            run=False,
        )
    return repo


def _quality(c: int, e: int, m: int) -> float:
    """Deterministic model quality per (clean, extract, model) triple —
    injective enough that ties cannot hide a wrong winner."""
    return round(0.5 + 0.04 * m + 0.013 * e + 0.007 * c, 6)


@dataclass
class ParallelMergeRow:
    workers: int
    seconds: float
    speedup: float
    evaluated: int
    executed: int
    reused: int
    winner_score: float


@dataclass
class ParallelMergeResult:
    leaves: int
    rows: list[ParallelMergeRow] = field(default_factory=list)
    #: workers -> {path_key: score} (the equivalence evidence)
    scores: dict[int, dict[str, float | None]] = field(default_factory=dict)
    #: workers -> {path_key: {stage: output_ref}}
    output_refs: dict[int, dict[str, dict[str, str]]] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        """Every worker count produced identical scores and output refs."""
        baselines = None
        for workers in sorted(self.scores):
            current = (self.scores[workers], self.output_refs[workers])
            if baselines is None:
                baselines = current
            elif current != baselines:
                return False
        return baselines is not None

    def speedup_at(self, workers: int) -> float:
        for row in self.rows:
            if row.workers == workers:
                return row.speedup
        raise KeyError(f"no row for {workers} workers")

    def render_table(self) -> str:
        rows = [
            (
                row.workers,
                f"{row.seconds:.3f}",
                f"{row.speedup:.2f}x",
                row.evaluated,
                row.executed,
                row.reused,
                f"{row.winner_score:.4f}",
            )
            for row in self.rows
        ]
        table = format_table(
            ["workers", "seconds", "speedup", "evaluated", "executed", "reused", "winner"],
            rows,
            title=f"Parallel merge search ({self.leaves} candidate leaves)",
        )
        verdict = "identical" if self.equivalent else "DIVERGENT"
        return f"{table}\nscores/output refs across worker counts: {verdict}"


def run_parallel_merge_experiment(
    workers: tuple[int, ...] = (1, 2, 4),
    n_clean: int = 2,
    n_extract: int = 3,
    n_model: int = 4,
    stage_seconds: float = 0.03,
    model_seconds: float = 0.06,
    budget: int | None = None,
    seed: int = 0,
) -> ParallelMergeResult:
    """Time the same prioritized merge search at each worker count.

    Each run gets a freshly built (cold) repository so no checkpoints
    leak between configurations; ``workers=1`` is the inline, thread-free
    width of the one search loop
    (:func:`~repro.core.merge.prioritized.search_window`) and is the
    speedup baseline.
    """
    result = ParallelMergeResult(leaves=n_clean * n_extract * n_model)
    baseline_seconds = None
    for n_workers in workers:
        repo = build_delayed_merge_repo(
            n_clean=n_clean,
            n_extract=n_extract,
            n_model=n_model,
            stage_seconds=stage_seconds,
            model_seconds=model_seconds,
            seed=seed,
        )
        start = time.perf_counter()
        outcome = repo.merge(
            "pmerge",
            "master",
            "dev",
            mode="pcpr",
            search="prioritized",
            budget=budget,
            workers=n_workers,
            seed=seed,
        )
        elapsed = time.perf_counter() - start
        if baseline_seconds is None:
            baseline_seconds = elapsed
        result.rows.append(
            ParallelMergeRow(
                workers=n_workers,
                seconds=elapsed,
                speedup=baseline_seconds / elapsed if elapsed > 0 else float("inf"),
                evaluated=outcome.candidates_evaluated,
                executed=outcome.components_executed,
                reused=outcome.components_reused,
                winner_score=outcome.commit.score,
            )
        )
        result.scores[n_workers] = {
            e.path_key: e.score for e in outcome.evaluations
        }
        result.output_refs[n_workers] = {
            e.path_key: dict(e.report.stage_outputs)
            for e in outcome.evaluations
            if e.report is not None and not e.report.failed
        }
    return result
