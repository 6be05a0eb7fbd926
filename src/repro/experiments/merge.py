"""Non-linear versioning (merge) experiment: regenerates Figs. 8 and 9.

For each application, a Fig. 3-shaped two-branch history is built and the
dev branch is merged into master three times (on identical fresh
repositories): with full MLCask (PC + PR), without PR, and without PCPR.
Measured per system: CPT, CSS, CET, CST (Fig. 8) and the pipeline time
composition during the merge (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.repository import MLCask
from ..workloads import ALL_WORKLOADS, apply_nonlinear_history, nonlinear_script
from .measures import MergeMeasures
from .report import format_table

DEFAULT_APPS = ("readmission", "dpm", "sa", "autolearn")

#: merge mode -> display name used in the paper's legends
MODE_LABELS = {
    "pcpr": "MLCask",
    "pc_only": "MLCask w/o PR",
    "none": "MLCask w/o PCPR",
}


@dataclass
class MergeExperimentResult:
    measures: dict = field(default_factory=dict)  # app -> mode -> MergeMeasures

    def render_fig8(self) -> str:
        blocks = []
        for app in self.measures:
            rows = [
                [
                    m.system,
                    round(m.cpt_seconds, 3),
                    round(m.css_bytes / 1e6, 3),
                    round(m.cet_seconds, 3),
                    round(m.cst_seconds, 3),
                ]
                for m in self.measures[app].values()
            ]
            blocks.append(
                format_table(
                    ["system", "CPT_s", "CSS_MB", "CET_s", "CST_s"],
                    rows,
                    title=f"Fig 8 ({app}): non-linear versioning performance",
                )
            )
        return "\n\n".join(blocks)

    def render_fig9(self) -> str:
        blocks = []
        for app in self.measures:
            rows = [
                [
                    m.system,
                    round(m.cst_seconds, 3),
                    round(m.preprocessing_seconds, 3),
                    round(m.training_seconds, 3),
                ]
                for m in self.measures[app].values()
            ]
            blocks.append(
                format_table(
                    ["system", "storage_s", "preprocessing_s", "training_s"],
                    rows,
                    title=f"Fig 9 ({app}): time composition during merge",
                )
            )
        return "\n\n".join(blocks)

    def speedup(self, app: str) -> float:
        """CPT of w/o PCPR over CPT of full MLCask (the paper's headline
        'up to 7.8x faster' comparison)."""
        baseline = self.measures[app]["none"].cpt_seconds
        mlcask = self.measures[app]["pcpr"].cpt_seconds
        return baseline / max(mlcask, 1e-9)

    def storage_saving(self, app: str) -> float:
        baseline = self.measures[app]["none"].css_bytes
        mlcask = self.measures[app]["pcpr"].css_bytes
        return baseline / max(mlcask, 1)


def _measure_merge(app: str, mode: str, scale: float, seed: int) -> MergeMeasures:
    workload = ALL_WORKLOADS[app](scale=scale, seed=seed)
    repo = MLCask(metric=workload.metric, seed=seed)
    apply_nonlinear_history(repo, nonlinear_script(workload))

    if mode == "pcpr":
        store_before = repo.checkpoints.stats.physical_bytes
    outcome = repo.merge(workload.name, "master", "dev", mode=mode)

    measures = MergeMeasures(system=MODE_LABELS[mode])
    measures.cet_seconds = outcome.execution_seconds
    measures.cst_seconds = outcome.storage_seconds
    measures.components_executed = outcome.components_executed
    measures.winner_score = outcome.commit.score

    reports = [e.report for e in outcome.evaluations if e.report is not None]
    measures.preprocessing_seconds = sum(r.preprocessing_seconds for r in reports)
    measures.training_seconds = sum(r.training_seconds for r in reports)

    if mode == "pcpr":
        # Storage grown on the shared deduplicating engine during the merge.
        measures.css_bytes = repo.checkpoints.stats.physical_bytes - store_before
    else:
        # Ablations archived every candidate's outputs into fresh folders;
        # count what those folders hold.
        for evaluation in outcome.evaluations:
            if evaluation.report is None:
                continue
            for stage_report in evaluation.report.stage_reports:
                if stage_report.executed:
                    measures.css_bytes += stage_report.output_bytes
    return measures


def run_merge_experiment(
    apps=DEFAULT_APPS,
    modes=tuple(MODE_LABELS),
    scale: float = 1.0,
    seed: int = 0,
) -> MergeExperimentResult:
    result = MergeExperimentResult()
    for app in apps:
        result.measures[app] = {}
        for mode in modes:
            result.measures[app][mode] = _measure_merge(app, mode, scale, seed)
    return result
