"""Evaluation measures (paper section VII-B).

"The evaluation metrics to measure the performance are cumulative
execution time (CET), cumulative storage time (CST), cumulative pipeline
time (CPT), and cumulative storage size (CSS). Execution time is the time
consumption of running the computational components while storage time is
the time needed for data preparation and transfer. Storage size refers to
the total data storage used ... Pipeline time refers to the sum of
execution time and storage time."
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MergeMeasures:
    """The four cumulative metrics plus composition, for one merge run."""

    system: str
    cet_seconds: float = 0.0  # cumulative execution time
    cst_seconds: float = 0.0  # cumulative storage time
    css_bytes: int = 0  # cumulative storage size
    preprocessing_seconds: float = 0.0
    training_seconds: float = 0.0
    components_executed: int = 0
    winner_score: float | None = None

    @property
    def cpt_seconds(self) -> float:
        """Cumulative pipeline time = execution + storage."""
        return self.cet_seconds + self.cst_seconds


@dataclass
class LinearSeries:
    """Per-iteration series for one (application, system) pair."""

    system: str
    total_seconds: list[float] = field(default_factory=list)  # cumulative
    storage_bytes: list[int] = field(default_factory=list)  # CSS per iter
    preprocessing_seconds: list[float] = field(default_factory=list)
    training_seconds: list[float] = field(default_factory=list)
    storage_seconds: list[float] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)  # ok / failed / skipped
    n_executed: list[int] = field(default_factory=list)  # stages run per iter

    @property
    def final_storage_bytes(self) -> int:
        return self.storage_bytes[-1] if self.storage_bytes else 0

    @property
    def composition(self) -> dict:
        """Whole-run time composition (the Fig. 6 stacked bars)."""
        return {
            "storage": sum(self.storage_seconds),
            "preprocessing": sum(self.preprocessing_seconds),
            "training": sum(self.training_seconds),
        }

    @property
    def total_executed(self) -> int:
        """Total component executions across the run — the deterministic
        counter behind the Fig. 5 time ordering."""
        return sum(self.n_executed)
