"""Distributed-training simulation tests (section VII-F substrate)."""

import numpy as np
import pytest

from repro.ml import DistributedTrainer, MLPClassifier, pipeline_speedup


def data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 6))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


class TestPipelineSpeedup:
    def test_k_equals_one_is_identity(self):
        for p in (0.1, 0.5, 0.9):
            assert pipeline_speedup(p, 1) == 1.0

    def test_paper_headline_point(self):
        """p > 0.9 and k = 8 => pipeline time below a quarter (speedup > 4)."""
        assert pipeline_speedup(0.9, 8) > 4.0
        assert pipeline_speedup(0.95, 8) > 4.0

    def test_monotone_in_k(self):
        values = [pipeline_speedup(0.7, k) for k in (1, 2, 4, 8)]
        assert values == sorted(values)

    def test_monotone_in_p(self):
        values = [pipeline_speedup(p, 8) for p in (0.1, 0.5, 0.9)]
        assert values == sorted(values)

    def test_amdahl_limit(self):
        # as k -> infinity, speedup -> 1/(1-p)
        assert abs(pipeline_speedup(0.5, 1e9) - 2.0) < 1e-6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pipeline_speedup(1.5, 2)
        with pytest.raises(ValueError):
            pipeline_speedup(0.5, 0)


class TestDistributedTrainer:
    def test_gradient_equivalence_across_worker_counts(self):
        """Synchronous data-parallel SGD must produce the same parameters
        regardless of the worker count (same seed, same batches)."""
        X, y = data()
        params = []
        for k in (1, 4):
            model = MLPClassifier(hidden_sizes=(8,), seed=3)
            DistributedTrainer(model, n_workers=k, seed=11).train(
                X, y, n_steps=20, compute_time_per_batch=0.01
            )
            params.append([W.copy() for W in model.weights_])
        for wa, wb in zip(params[0], params[1]):
            assert np.allclose(wa, wb, atol=1e-10)

    def test_simulated_clock_scales_with_workers(self):
        X, y = data()
        end_times = {}
        for k in (1, 2, 8):
            model = MLPClassifier(hidden_sizes=(8,), seed=0)
            trace = DistributedTrainer(model, n_workers=k, seed=0).train(
                X, y, n_steps=10, compute_time_per_batch=0.08
            )
            end_times[k] = trace.times[-1]
        assert end_times[1] > end_times[2] > end_times[8]

    def test_sync_overhead_gives_diminishing_returns(self):
        X, y = data()
        speedups = []
        for k in (2, 8):
            model = MLPClassifier(hidden_sizes=(8,), seed=0)
            trace = DistributedTrainer(
                model, n_workers=k, sync_overhead_fraction=0.1, seed=0
            ).train(X, y, n_steps=5, compute_time_per_batch=0.1)
            speedups.append(0.5 / trace.times[-1])  # vs 5 steps * 0.1s
        per_worker = [speedups[0] / 2, speedups[1] / 8]
        assert per_worker[0] > per_worker[1]

    def test_loss_decreases(self):
        X, y = data()
        model = MLPClassifier(hidden_sizes=(8,), seed=1)
        trace = DistributedTrainer(model, n_workers=2, seed=1).train(
            X, y, n_steps=60, compute_time_per_batch=0.001
        )
        assert trace.smoothed[-1] < trace.smoothed[0]

    def test_trace_loss_at_time(self):
        X, y = data()
        model = MLPClassifier(hidden_sizes=(8,), seed=0)
        trace = DistributedTrainer(model, n_workers=1, seed=0).train(
            X, y, n_steps=5, compute_time_per_batch=0.1
        )
        assert np.isnan(trace.loss_at_time(0.0))
        assert trace.loss_at_time(1e9) == trace.smoothed[-1]

    def test_model_usable_after_training(self):
        X, y = data()
        model = MLPClassifier(hidden_sizes=(8,), seed=0)
        DistributedTrainer(model, n_workers=2, seed=0).train(
            X, y, n_steps=40, compute_time_per_batch=0.001
        )
        from repro.ml import accuracy

        assert accuracy(y, model.predict(X)) > 0.7

    @pytest.mark.parametrize("n_labels", [299, 301])
    def test_label_count_must_match_the_rows(self, n_labels):
        X, y = data()
        trainer = DistributedTrainer(MLPClassifier(hidden_sizes=(8,)), n_workers=2)
        with pytest.raises(ValueError, match=f"X has 300 rows but y has {n_labels} labels"):
            trainer.train(X, np.resize(y, n_labels), n_steps=1, compute_time_per_batch=0.01)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            DistributedTrainer(MLPClassifier(), n_workers=0)
