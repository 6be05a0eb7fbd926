"""Frozen reference: ``GaussianHMM`` as it stood at ``00f5503``, when
``fit``, ``posterior`` and ``log_likelihood`` ran the scaled forward and
backward recursions one sequence at a time.

Production now runs one E-step over every sequence at once, grouped by
length, so it can no longer vouch for itself. This copy is the
per-sequence oracle ``test_hmm_reference.py`` compares it against, bit for
bit. It is verbatim but for the class name and the package-relative
imports made absolute. Do not tidy it; change it only when the semantics
of the model are changed on purpose, and say so here.

Import as ``from ml.reference_hmm import ReferenceGaussianHMM`` (``tests/``
is on ``sys.path``, see ``conftest.py``).
"""
from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.ml.utils import resolve_rng

_MIN_VAR = 1e-4
_MIN_PROB = 1e-10


class ReferenceGaussianHMM:
    """Diagonal-covariance Gaussian HMM trained with Baum-Welch."""

    def __init__(
        self,
        n_states: int = 4,
        n_iterations: int = 25,
        tol: float = 1e-4,
        seed: int = 0,
    ):
        if n_states < 2:
            raise ValueError(f"need at least 2 states, got {n_states}")
        self.n_states = n_states
        self.n_iterations = n_iterations
        self.tol = tol
        self.seed = seed
        self._fitted = False
        self.initial_: np.ndarray | None = None
        self.transitions_: np.ndarray | None = None
        self.means_: np.ndarray | None = None
        self.variances_: np.ndarray | None = None
        self.log_likelihood_history_: list[float] = []

    # --------------------------------------------------------------- helpers
    def _log_emission(self, X: np.ndarray) -> np.ndarray:
        """Log density of each frame under each state: (T, n_states)."""
        diff = X[:, None, :] - self.means_[None, :, :]
        inv_var = 1.0 / self.variances_
        quad = np.sum(diff * diff * inv_var[None, :, :], axis=2)
        log_norm = np.sum(np.log(2.0 * np.pi * self.variances_), axis=1)
        return -0.5 * (quad + log_norm[None, :])

    def _emission_probs(self, X: np.ndarray) -> tuple[np.ndarray, float]:
        """Return per-frame-normalized emission probs and the log offset.

        Normalizing each frame by its max log-density avoids underflow; the
        subtracted offsets are returned so the exact sequence log-likelihood
        can be recovered as ``sum(log(scale)) + offset``.
        """
        log_b = self._log_emission(X)
        frame_max = log_b.max(axis=1, keepdims=True)
        log_b = log_b - frame_max
        return np.clip(np.exp(log_b), _MIN_PROB, None), float(frame_max.sum())

    def _forward(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        T = b.shape[0]
        alpha = np.zeros((T, self.n_states))
        scale = np.zeros(T)
        alpha[0] = self.initial_ * b[0]
        scale[0] = alpha[0].sum()
        alpha[0] /= max(scale[0], _MIN_PROB)
        for t in range(1, T):
            alpha[t] = (alpha[t - 1] @ self.transitions_) * b[t]
            scale[t] = alpha[t].sum()
            alpha[t] /= max(scale[t], _MIN_PROB)
        return alpha, scale

    def _backward(self, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
        T = b.shape[0]
        beta = np.zeros((T, self.n_states))
        beta[-1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[t] = self.transitions_ @ (b[t + 1] * beta[t + 1])
            beta[t] /= max(scale[t + 1], _MIN_PROB)
        return beta

    # ------------------------------------------------------------ public API
    def fit(self, sequences: list[np.ndarray]) -> "ReferenceGaussianHMM":
        """Baum-Welch over a list of (T_i, n_features) sequences."""
        if not sequences:
            raise ValueError("need at least one sequence")
        sequences = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sequences]
        n_features = sequences[0].shape[1]
        stacked = np.vstack(sequences)
        rng = resolve_rng(self.seed)

        # init: k-means-free heuristic — spread means over data quantiles
        quantiles = np.linspace(0.1, 0.9, self.n_states)
        self.means_ = np.quantile(stacked, quantiles, axis=0)
        self.means_ = self.means_ + rng.standard_normal(self.means_.shape) * 1e-3
        global_var = stacked.var(axis=0).clip(_MIN_VAR, None)
        self.variances_ = np.tile(global_var, (self.n_states, 1))
        self.initial_ = np.full(self.n_states, 1.0 / self.n_states)
        self.transitions_ = np.full(
            (self.n_states, self.n_states), 0.1 / max(self.n_states - 1, 1)
        )
        np.fill_diagonal(self.transitions_, 0.9)

        self.log_likelihood_history_ = []
        prev_ll = -np.inf
        for _ in range(self.n_iterations):
            total_ll = 0.0
            init_acc = np.zeros(self.n_states)
            trans_acc = np.zeros((self.n_states, self.n_states))
            mean_num = np.zeros((self.n_states, n_features))
            var_num = np.zeros((self.n_states, n_features))
            gamma_sum = np.zeros(self.n_states)

            for seq in sequences:
                b, log_offset = self._emission_probs(seq)
                alpha, scale = self._forward(b)
                beta = self._backward(b, scale)
                total_ll += (
                    float(np.sum(np.log(np.clip(scale, _MIN_PROB, None)))) + log_offset
                )
                gamma = alpha * beta
                gamma /= np.clip(gamma.sum(axis=1, keepdims=True), _MIN_PROB, None)

                init_acc += gamma[0]
                if seq.shape[0] > 1:
                    # xi[t] proportional to alpha[t] A b[t+1] beta[t+1]
                    xi = (
                        alpha[:-1, :, None]
                        * self.transitions_[None, :, :]
                        * (b[1:] * beta[1:])[:, None, :]
                    )
                    xi /= np.clip(xi.sum(axis=(1, 2), keepdims=True), _MIN_PROB, None)
                    trans_acc += xi.sum(axis=0)
                gamma_sum += gamma.sum(axis=0)
                mean_num += gamma.T @ seq
                var_num += gamma.T @ (seq * seq)

            self.initial_ = init_acc / init_acc.sum()
            row_sums = np.clip(trans_acc.sum(axis=1, keepdims=True), _MIN_PROB, None)
            self.transitions_ = trans_acc / row_sums
            denom = np.clip(gamma_sum[:, None], _MIN_PROB, None)
            self.means_ = mean_num / denom
            self.variances_ = (var_num / denom - self.means_**2).clip(_MIN_VAR, None)

            self.log_likelihood_history_.append(total_ll)
            if abs(total_ll - prev_ll) < self.tol * max(abs(prev_ll), 1.0):
                break
            prev_ll = total_ll

        self._fitted = True
        return self

    def posterior(self, sequence: np.ndarray) -> np.ndarray:
        """Per-frame state posteriors gamma: (T, n_states)."""
        self._check()
        seq = np.atleast_2d(np.asarray(sequence, dtype=np.float64))
        b, _ = self._emission_probs(seq)
        alpha, scale = self._forward(b)
        beta = self._backward(b, scale)
        gamma = alpha * beta
        return gamma / np.clip(gamma.sum(axis=1, keepdims=True), _MIN_PROB, None)

    def viterbi(self, sequence: np.ndarray) -> np.ndarray:
        """Most likely state path."""
        self._check()
        seq = np.atleast_2d(np.asarray(sequence, dtype=np.float64))
        log_b = self._log_emission(seq)
        log_a = np.log(np.clip(self.transitions_, _MIN_PROB, None))
        T = seq.shape[0]
        delta = np.zeros((T, self.n_states))
        psi = np.zeros((T, self.n_states), dtype=np.int64)
        delta[0] = np.log(np.clip(self.initial_, _MIN_PROB, None)) + log_b[0]
        for t in range(1, T):
            scores = delta[t - 1][:, None] + log_a
            psi[t] = scores.argmax(axis=0)
            delta[t] = scores.max(axis=0) + log_b[t]
        path = np.zeros(T, dtype=np.int64)
        path[-1] = delta[-1].argmax()
        for t in range(T - 2, -1, -1):
            path[t] = psi[t + 1][path[t + 1]]
        return path

    def log_likelihood(self, sequence: np.ndarray) -> float:
        self._check()
        seq = np.atleast_2d(np.asarray(sequence, dtype=np.float64))
        b, log_offset = self._emission_probs(seq)
        _, scale = self._forward(b)
        return float(np.sum(np.log(np.clip(scale, _MIN_PROB, None)))) + log_offset

    def get_params(self) -> dict:
        self._check()
        return {
            "initial": self.initial_,
            "transitions": self.transitions_,
            "means": self.means_,
            "variances": self.variances_,
        }

    def _check(self) -> None:
        if not self._fitted:
            raise NotFittedError("ReferenceGaussianHMM")
