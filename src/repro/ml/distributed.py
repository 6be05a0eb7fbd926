"""Simulated synchronous data-parallel distributed training (section VII-F).

The paper measures ResNet18 on up to 8 physical GPUs; offline we reproduce
the *experiment*, not the hardware: gradients are genuinely computed by
``n_workers`` shards and averaged (synchronous data-parallel SGD — the
update math is exact), while wall-clock is advanced on a simulated clock::

    step_time = compute_time / n_workers + sync_overhead(n_workers)

``compute_time`` is calibrated from the measured single-shard gradient
cost, so the loss-vs-simulated-time curves in Fig. 11(a) have the right
relative shape: more workers -> higher sample throughput -> faster loss
decay, with diminishing returns from the synchronization term.

``pipeline_speedup`` is the closed-form Amdahl model the paper plots in
Fig. 11(b): ``Speedup = 1 / ((1 - p) + p / k)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .base import as_2d
from .mlp import MLPClassifier, log_likelihood_rows
from .utils import resolve_rng


def pipeline_speedup(p: float, k: float) -> float:
    """Paper's pipeline-time speedup model: 1 / ((1-p) + p/k).

    ``p`` is the fraction of pipeline time spent in model training and
    ``k`` the training speedup from distributed execution.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return 1.0 / ((1.0 - p) + p / k)


@dataclass
class TrainingTrace:
    """Loss curve on the simulated clock.

    ``losses`` holds raw per-step minibatch losses; ``smoothed`` holds an
    exponential moving average (the curve a dashboard would plot — raw
    minibatch losses are too noisy for cross-run time comparisons).
    """

    n_workers: int
    times: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    smoothed: list[float] = field(default_factory=list)

    def loss_at_time(self, t: float) -> float:
        """Last smoothed loss recorded at or before simulated time ``t``."""
        idx = np.searchsorted(self.times, t, side="right") - 1
        if idx < 0:
            return float("nan")
        series = self.smoothed if self.smoothed else self.losses
        return series[idx]


class DistributedTrainer:
    """Synchronous data-parallel SGD over an MLP with a simulated clock."""

    def __init__(
        self,
        model: MLPClassifier,
        n_workers: int = 1,
        sync_overhead_fraction: float = 0.04,
        seed: int = 0,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if sync_overhead_fraction < 0:
            raise ValueError("sync_overhead_fraction must be >= 0")
        self.model = model
        self.n_workers = n_workers
        # All-reduce cost grows with the worker count but is proportional
        # to the per-batch compute (gradient size ~ model size); expressing
        # it as a fraction keeps the simulation sane across model scales.
        self.sync_overhead_fraction = sync_overhead_fraction
        self.seed = seed

    def train(
        self,
        X,
        y,
        n_steps: int = 200,
        global_batch: int = 64,
        compute_time_per_batch: float | None = None,
    ) -> TrainingTrace:
        """Run ``n_steps`` synchronous steps; return the simulated-time trace.

        Each step draws a global batch, shards it across workers, computes
        per-shard gradients, averages them, and applies one SGD update —
        numerically the same update a single worker would make on the full
        batch, which is the defining property of synchronous data-parallel
        training.
        """
        model = self.model
        X = as_2d(X)
        targets_full = model._targets(X, y)
        rng = resolve_rng(self.seed)
        model._init_params(X.shape[1], model.classes_.size, rng)

        if compute_time_per_batch is None:
            compute_time_per_batch = self._calibrate(X, targets_full, global_batch)

        trace = TrainingTrace(n_workers=self.n_workers)
        clock = 0.0
        overhead = 0.0
        if self.n_workers > 1:
            overhead = (
                self.sync_overhead_fraction
                * compute_time_per_batch
                * np.log2(self.n_workers)
            )

        for _ in range(n_steps):
            batch = rng.choice(X.shape[0], size=min(global_batch, X.shape[0]), replace=False)
            shards = np.array_split(batch, self.n_workers)
            grads = np.zeros_like(model._params)
            total = 0
            for shard in shards:
                if shard.size == 0:
                    continue
                activations, proba = model._forward(X[shard])
                total += shard.size
                # _backward normalizes by shard size; undo to weight shards
                # by their sample counts before global averaging.
                grads += model._backward(activations, proba, targets_full[shard]) * shard.size
            model._params -= model.learning_rate * grads / total

            clock += compute_time_per_batch / self.n_workers + overhead
            trace.times.append(clock)
            # Record the full-dataset training loss: monotone-comparable
            # across worker counts (minibatch losses are too noisy; the
            # simulated clock never charges for this bookkeeping pass).
            _, proba = model._forward(X)
            raw = float(-np.mean(log_likelihood_rows(proba, targets_full)))
            trace.losses.append(raw)
            previous = trace.smoothed[-1] if trace.smoothed else raw
            trace.smoothed.append(0.8 * previous + 0.2 * raw)

        model._mark_fitted()
        return trace

    def _calibrate(self, X, targets_full, global_batch: int) -> float:
        """Measure the real single-worker cost of one batch gradient."""
        model = self.model
        batch = np.arange(min(global_batch, X.shape[0]))
        start = time.perf_counter()
        activations, proba = model._forward(X[batch])
        model._backward(activations, proba, targets_full[batch])
        return max(time.perf_counter() - start, 1e-5)
