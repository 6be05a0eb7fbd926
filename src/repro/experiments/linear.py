"""Linear-versioning experiment: regenerates Figs. 5, 6, and 7.

For each application, the same deterministic 10-iteration update schedule
(pre-processing updates w.p. 0.4, model updates w.p. 0.6, designed
incompatibility at the last iteration) is replayed against ModelDB,
MLflow, and MLCask. The outputs are:

* Fig. 5 — cumulative total time per iteration, per system;
* Fig. 6 — whole-run time composition (storage / pre-processing / model
  training), per system;
* Fig. 7 — cumulative storage size (CSS) per iteration, per system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines import ALL_SYSTEMS
from ..workloads import ALL_WORKLOADS, linear_script
from .measures import LinearSeries
from .report import format_series, format_table

DEFAULT_APPS = ("readmission", "dpm", "sa", "autolearn")
DEFAULT_SYSTEMS = ("modeldb", "mlflow", "mlcask")


@dataclass
class LinearExperimentResult:
    """All series for all (application, system) pairs."""

    series: dict = field(default_factory=dict)  # app -> system -> LinearSeries

    def fig5_series(self, app: str) -> dict:
        """system -> cumulative total time per iteration."""
        return {
            system: series.total_seconds
            for system, series in self.series[app].items()
        }

    def fig6_composition(self, app: str) -> dict:
        """system -> {storage, preprocessing, training} totals."""
        return {
            system: series.composition
            for system, series in self.series[app].items()
        }

    def fig7_series(self, app: str) -> dict:
        """system -> CSS (MB) per iteration."""
        return {
            system: [b / 1e6 for b in series.storage_bytes]
            for system, series in self.series[app].items()
        }

    # ------------------------------------------------------------ rendering
    def render_fig5(self) -> str:
        blocks = []
        for app in self.series:
            blocks.append(
                format_series(
                    self.fig5_series(app),
                    title=f"Fig 5 ({app}): cumulative total time (s) per iteration",
                )
            )
        return "\n\n".join(blocks)

    def render_fig6(self) -> str:
        blocks = []
        for app in self.series:
            composition = self.fig6_composition(app)
            rows = [
                [
                    system,
                    round(parts["storage"], 3),
                    round(parts["preprocessing"], 3),
                    round(parts["training"], 3),
                ]
                for system, parts in composition.items()
            ]
            blocks.append(
                format_table(
                    ["system", "storage_s", "preprocessing_s", "training_s"],
                    rows,
                    title=f"Fig 6 ({app}): pipeline time composition",
                )
            )
        return "\n\n".join(blocks)

    def render_fig7(self) -> str:
        blocks = []
        for app in self.series:
            blocks.append(
                format_series(
                    self.fig7_series(app),
                    title=f"Fig 7 ({app}): cumulative storage size (MB) per iteration",
                )
            )
        return "\n\n".join(blocks)

    def storage_saving_ratio(self, app: str) -> float:
        """ModelDB CSS over MLCask CSS at the final iteration."""
        modeldb = self.series[app]["modeldb"].final_storage_bytes
        mlcask = self.series[app]["mlcask"].final_storage_bytes
        return modeldb / max(mlcask, 1)


def run_linear_experiment(
    apps=DEFAULT_APPS,
    systems=DEFAULT_SYSTEMS,
    n_iterations: int = 10,
    scale: float = 1.0,
    seed: int = 0,
) -> LinearExperimentResult:
    """Replay the update schedule on every system for every application."""
    result = LinearExperimentResult()
    for app in apps:
        result.series[app] = {}
        for system_name in systems:
            workload = ALL_WORKLOADS[app](scale=scale, seed=seed)
            steps = linear_script(workload, n_iterations=n_iterations, seed=seed)
            system = ALL_SYSTEMS[system_name](workload, seed=seed)
            series = LinearSeries(system=system_name)
            cumulative = 0.0
            for step in steps:
                record = system.run_iteration(step.iteration, step.updates)
                cumulative += record.total_seconds
                series.total_seconds.append(cumulative)
                series.storage_bytes.append(record.storage_bytes)
                series.preprocessing_seconds.append(record.preprocessing_seconds)
                series.training_seconds.append(record.training_seconds)
                series.storage_seconds.append(record.storage_seconds)
                series.n_executed.append(record.n_executed)
                if record.skipped_incompatible:
                    series.flags.append("skipped")
                elif record.failed:
                    series.flags.append("failed")
                else:
                    series.flags.append("ok")
            result.series[app][system_name] = series
    return result
