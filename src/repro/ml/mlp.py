"""Multi-layer perceptron classifier (backprop, mini-batch SGD + momentum).

This is the "DL model" stage of the Readmission and DPM pipelines. The
paper trains deep models on Apache SINGA; here a seeded numpy MLP plays the
same role: an expensive trainable component whose accuracy depends on which
upstream feature-extraction version feeds it — the coupling that makes the
metric-driven merge non-trivial.

Buffer layout. Every parameter lives in one flat float64 buffer: all
weight matrices first, layer by layer, each row-major, then all bias
vectors. ``weights_`` and ``biases_`` are C-contiguous reshaped views of
it, so ``get_params()`` hands out the same bytes a list of separate arrays
would. The gradients live in a second buffer of the same layout, written
in place by ``_backward``; the L2 term is one operation over the weight
prefix and the momentum step four operations over the whole buffer. Each
element is rounded exactly as a per-layer loop would round it, so the
layout changes what a training step costs, never what it computes
(``tests/ml/test_mlp_reference.py`` holds it to the per-layer model).
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, as_2d, check_width, encode_labels, one_hot
from .utils import resolve_rng, xavier_init


def _layer_views(flat: np.ndarray, sizes: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight matrices, then bias vectors, as views of ``flat``."""
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


def _softmax_in_place(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized, overwriting ``logits``."""
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, keepdims=True)
    return logits


def log_likelihood_rows(proba: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each row's log-likelihood of its one-hot ``targets`` under ``proba``
    (clipped to [1e-12, 1]); overwrites ``proba``. Minus its mean is the
    cross-entropy loss."""
    np.clip(proba, 1e-12, 1.0, out=proba)
    np.log(proba, out=proba)
    np.multiply(targets, proba, out=proba)
    return np.add.reduce(proba, axis=1)


class MLPClassifier(Classifier):
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
    def _targets(self, X: np.ndarray, y) -> np.ndarray:
        """Set ``classes_`` from ``y``; return its one-hot rows, one per row
        of ``X``."""
        self.classes_, indices = encode_labels(y, X.shape[0])
        return one_hot(indices, self.classes_.size)

    def _init_params(self, n_features: int, n_classes: int, rng) -> None:
        sizes = [n_features, *self.hidden_sizes, n_classes]
        self._n_weights = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
        self._params = np.zeros(self._n_weights + sum(sizes[1:]))
        self.weights_, self.biases_ = _layer_views(self._params, sizes)
        for W in self.weights_:
            W[...] = xavier_init(rng, *W.shape)
        self._grads = np.empty_like(self._params)
        self._grads_w, self._grads_b = _layer_views(self._grads, sizes)

    def _forward(self, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Hidden activations (``X`` first) and the class probabilities."""
        activations = [X]
        h = X
        for W, b in zip(self.weights_[:-1], self.biases_[:-1]):
            h = h @ W
            h += b
            np.maximum(h, 0.0, out=h)
            activations.append(h)
        logits = h @ self.weights_[-1]
        logits += self.biases_[-1]
        return activations, _softmax_in_place(logits)

    def _backward(
        self,
        activations: list[np.ndarray],
        proba: np.ndarray,
        targets: np.ndarray,
    ) -> np.ndarray:
        """The gradient of the mean loss plus the L2 term, written into the
        flat gradient buffer (which is returned; the next call reuses it)."""
        delta = proba - targets
        delta /= targets.shape[0]
        for layer in range(len(self.weights_) - 1, -1, -1):
            np.matmul(activations[layer].T, delta, out=self._grads_w[layer])
            np.add.reduce(delta, axis=0, out=self._grads_b[layer])
            if layer > 0:
                delta = delta @ self.weights_[layer].T
                delta *= activations[layer] > 0
        n_w = self._n_weights
        self._grads[:n_w] += self.l2 * self._params[:n_w]
        return self._grads

    # ------------------------------------------------------------ public API
    def fit(self, X, y) -> "MLPClassifier":
        X = as_2d(X)
        targets = self._targets(X, y)
        n_classes = self.classes_.size
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        rng = resolve_rng(self.seed)
        self._init_params(X.shape[1], n_classes, rng)
        params = self._params
        velocity = np.zeros_like(params)
        n, size = X.shape[0], self.batch_size
        starts = range(0, n, size)
        epoch_proba = np.empty((n, n_classes))
        self.loss_history_ = []

        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            epoch_X, epoch_targets = X[order], targets[order]
            for start in starts:
                stop = start + size
                activations, proba = self._forward(epoch_X[start:stop])
                epoch_proba[start:stop] = proba
                grads = self._backward(activations, proba, epoch_targets[start:stop])
                velocity *= self.momentum
                grads *= self.learning_rate
                velocity -= grads
                params += velocity
            # Each batch's loss is minus the mean of its rows, summed over
            # its rows alone and added in batch order: what a per-batch
            # ``np.mean`` of the same rows gives.
            rows = log_likelihood_rows(epoch_proba, epoch_targets)
            epoch_loss = 0.0
            for start in starts:
                batch_rows = rows[start:start + size]
                epoch_loss += -(np.add.reduce(batch_rows) / batch_rows.shape[0])
            self.loss_history_.append(epoch_loss / max(len(starts), 1))
        self._mark_fitted()
        return self

    def predict_proba(self, X) -> np.ndarray:
        self.check_fitted()
        X = as_2d(X)
        check_width(X, self.weights_[0].shape[0])
        return self._forward(X)[1]

    def get_params(self) -> dict:
        self.check_fitted()
        params: dict = {"n_layers": len(self.weights_)}
        for i, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            params[f"W{i}"] = W
            params[f"b{i}"] = b
        return params
