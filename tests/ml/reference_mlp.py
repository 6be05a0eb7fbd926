"""Frozen reference: ``MLPClassifier`` and ``DistributedTrainer`` as they
stood at ``689548b``, when the MLP kept one array per weight matrix and
bias vector, a per-layer velocity list, and computed each batch's loss
with ``np.mean`` as the batch went by.

Production now trains on one flat parameter buffer, with the gradients,
the L2 term and the momentum step as whole-buffer operations, so it can no
longer vouch for itself. This copy is the per-layer oracle
``test_mlp_reference.py`` compares it against, bit for bit. It is verbatim
but for the class names and the package-relative imports made absolute.
Do not tidy it; change it only when the semantics of the model are
changed on purpose, and say so here.

Import as ``from ml.reference_mlp import ReferenceMLPClassifier``
(``tests/`` is on ``sys.path``, see ``conftest.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.ml.base import Classifier, as_2d, encode_labels, one_hot
from repro.ml.distributed import TrainingTrace
from repro.ml.utils import minibatches, relu, resolve_rng, softmax, xavier_init


class ReferenceMLPClassifier(Classifier):
    """Fully-connected ReLU network with a softmax head."""

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (32,),
        learning_rate: float = 0.05,
        n_epochs: int = 30,
        batch_size: int = 32,
        momentum: float = 0.9,
        l2: float = 1e-4,
        seed: int = 0,
    ):
        if not hidden_sizes:
            raise ValueError("need at least one hidden layer")
        if any(h < 1 for h in hidden_sizes):
            raise ValueError(f"hidden sizes must be positive, got {hidden_sizes}")
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.momentum = momentum
        self.l2 = l2
        self.seed = seed
        self.weights_: list[np.ndarray] = []
        self.biases_: list[np.ndarray] = []
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------- internals
    def _init_params(self, n_features: int, n_classes: int, rng) -> None:
        sizes = [n_features, *self.hidden_sizes, n_classes]
        self.weights_ = [
            xavier_init(rng, sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)
        ]
        self.biases_ = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

    def _forward(self, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        activations = [X]
        h = X
        for W, b in zip(self.weights_[:-1], self.biases_[:-1]):
            h = relu(h @ W + b)
            activations.append(h)
        logits = h @ self.weights_[-1] + self.biases_[-1]
        return activations, logits

    def _backward(
        self,
        activations: list[np.ndarray],
        proba: np.ndarray,
        targets: np.ndarray,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        n = targets.shape[0]
        grad_logits = (proba - targets) / n
        grads_w: list[np.ndarray] = [None] * len(self.weights_)  # type: ignore[list-item]
        grads_b: list[np.ndarray] = [None] * len(self.biases_)  # type: ignore[list-item]
        delta = grad_logits
        for layer in range(len(self.weights_) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta + self.l2 * self.weights_[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights_[layer].T) * (activations[layer] > 0)
        return grads_w, grads_b

    # ------------------------------------------------------------ public API
    def fit(self, X, y) -> "ReferenceMLPClassifier":
        X = as_2d(X)
        self.classes_, indices = encode_labels(y)
        n_classes = self.classes_.size
        if n_classes < 2:
            raise ValueError("need at least two classes")
        targets_full = one_hot(indices, n_classes)
        rng = resolve_rng(self.seed)
        self._init_params(X.shape[1], n_classes, rng)
        velocity_w = [np.zeros_like(W) for W in self.weights_]
        velocity_b = [np.zeros_like(b) for b in self.biases_]
        self.loss_history_ = []

        for _ in range(self.n_epochs):
            epoch_loss = 0.0
            n_batches = 0
            for batch in minibatches(X.shape[0], self.batch_size, rng):
                activations, logits = self._forward(X[batch])
                proba = softmax(logits)
                batch_targets = targets_full[batch]
                loss = -np.mean(
                    np.sum(batch_targets * np.log(np.clip(proba, 1e-12, 1.0)), axis=1)
                )
                epoch_loss += loss
                n_batches += 1
                grads_w, grads_b = self._backward(activations, proba, batch_targets)
                for layer in range(len(self.weights_)):
                    velocity_w[layer] = (
                        self.momentum * velocity_w[layer]
                        - self.learning_rate * grads_w[layer]
                    )
                    velocity_b[layer] = (
                        self.momentum * velocity_b[layer]
                        - self.learning_rate * grads_b[layer]
                    )
                    self.weights_[layer] += velocity_w[layer]
                    self.biases_[layer] += velocity_b[layer]
            self.loss_history_.append(epoch_loss / max(n_batches, 1))
        self._mark_fitted()
        return self

    def predict_proba(self, X) -> np.ndarray:
        self.check_fitted()
        _, logits = self._forward(as_2d(X))
        return softmax(logits)

    def get_params(self) -> dict:
        self.check_fitted()
        params: dict = {"n_layers": len(self.weights_)}
        for i, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            params[f"W{i}"] = W
            params[f"b{i}"] = b
        return params


class ReferenceDistributedTrainer:
    """Synchronous data-parallel SGD over an MLP with a simulated clock."""

    def __init__(
        self,
        model: ReferenceMLPClassifier,
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
        model.classes_, indices = encode_labels(y)
        n_classes = model.classes_.size
        targets_full = one_hot(indices, n_classes)
        rng = resolve_rng(self.seed)
        model._init_params(X.shape[1], n_classes, rng)

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
            grads_w = [np.zeros_like(W) for W in model.weights_]
            grads_b = [np.zeros_like(b) for b in model.biases_]
            total = 0
            for shard in shards:
                if shard.size == 0:
                    continue
                activations, logits = model._forward(X[shard])
                proba = softmax(logits)
                shard_targets = targets_full[shard]
                total += shard.size
                gw, gb = model._backward(activations, proba, shard_targets)
                # _backward normalizes by shard size; undo to weight shards
                # by their sample counts before global averaging.
                for layer in range(len(grads_w)):
                    grads_w[layer] += gw[layer] * shard.size
                    grads_b[layer] += gb[layer] * shard.size
            for layer in range(len(grads_w)):
                model.weights_[layer] -= model.learning_rate * grads_w[layer] / total
                model.biases_[layer] -= model.learning_rate * grads_b[layer] / total

            clock += compute_time_per_batch / self.n_workers + overhead
            trace.times.append(clock)
            # Record the full-dataset training loss: monotone-comparable
            # across worker counts (minibatch losses are too noisy; the
            # simulated clock never charges for this bookkeeping pass).
            _, logits = model._forward(X)
            proba = softmax(logits)
            raw = float(
                -np.mean(
                    np.sum(targets_full * np.log(np.clip(proba, 1e-12, 1.0)), axis=1)
                )
            )
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
        activations, logits = model._forward(X[batch])
        proba = softmax(logits)
        model._backward(activations, proba, targets_full[batch])
        return max(time.perf_counter() - start, 1e-5)
