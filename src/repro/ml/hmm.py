"""Gaussian hidden Markov model (scaled forward-backward + Baum-Welch).

The DPM pipeline's third step designs "a Hidden Markov Modeling (HMM) model
... to process the extracted medical features so that they become unbiased"
(paper section VII-A). We implement a full diagonal-covariance Gaussian HMM:

* scaled forward/backward recursions (no underflow on long sequences),
* Baum-Welch EM for transitions, means, variances, and initial state probs,
* Viterbi decoding and posterior state probabilities.

In the DPM workload the posterior state probabilities are appended to the
visit features — the "unbiasing" — before the downstream classifier.

All sequences go through one batched E-step. They are grouped by length
and each group is stacked ``(n, T, F)``; the emissions of every frame come
from one call, and the scaled recursions step ``t`` over a whole group at
once. The per-step products are written as stacked matrix-vector products
with a unit dimension, ``(alpha[:, t-1, None, :] @ A)[:, 0]`` and
``(A @ w[:, :, None])[:, :, 0]``: numpy runs each item as its own BLAS
``gemv``, so every item is bit-identical to the one-sequence product
``alpha[t-1] @ A``. A plain ``(n, S) @ (S, S)`` would be one ``gemm``, which
sums in another order and moves the last bits. Baum-Welch sums its
per-sequence statistics in the callers' sequence order, whatever the
grouping (see "Kernels of the bundled apps" in ``docs/invariants.md``).
"""

from __future__ import annotations

import numpy as np

from ..errors import NotFittedError
from .utils import resolve_rng

_MIN_VAR = 1e-4
_MIN_PROB = 1e-10


def _as_sequences(sequences, n_features: int | None = None) -> list[np.ndarray]:
    """``(T_i, F)`` float arrays; refuse an empty sequence or a width that
    differs from ``n_features`` (default: the first sequence's)."""
    arrays = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sequences]
    if n_features is None:
        n_features, against = arrays[0].shape[1], "sequence 0 has"
    else:
        against = "the model was fitted on"
    for index, seq in enumerate(arrays):
        if seq.shape[0] == 0:
            raise ValueError(f"sequence {index} is empty")
        if seq.shape[1] != n_features:
            raise ValueError(
                f"sequence {index} has {seq.shape[1]} features, "
                f"{against} {n_features}"
            )
    return arrays


class _Batch:
    """Sequences grouped by length, each group stacked ``(n, T, F)``.

    ``frames`` holds every frame group after group, so the emissions of
    all of them come from one call and each group's block reshapes back.
    """

    def __init__(self, sequences: list[np.ndarray]):
        by_length: dict[int, list[int]] = {}
        for index, seq in enumerate(sequences):
            by_length.setdefault(seq.shape[0], []).append(index)
        self.n_sequences = len(sequences)
        self.index = [np.array(members) for members in by_length.values()]
        self.X = [np.stack([sequences[i] for i in members]) for members in by_length.values()]
        self.frames = np.concatenate([X.reshape(-1, X.shape[2]) for X in self.X])


class GaussianHMM:
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

    def _e_step(self, batch: _Batch) -> list[tuple]:
        """Scaled forward-backward over every group of ``batch``.

        Returns per group ``(b, alpha, beta, gamma, ll)``: emission probs
        normalized per frame by their max log-density (no underflow), the
        scaled recursions, the state posteriors and each sequence's exact
        log-likelihood ``sum(log(scale)) + sum(frame max)``.
        """
        log_b = self._log_emission(batch.frames)
        frame_max = log_b.max(axis=1, keepdims=True)
        b_all = np.clip(np.exp(log_b - frame_max), _MIN_PROB, None)
        A = self.transitions_
        results, start = [], 0
        for X in batch.X:
            n, T, _ = X.shape
            stop = start + n * T
            b = b_all[start:stop].reshape(n, T, self.n_states)
            offset = frame_max[start:stop].reshape(n, T).sum(axis=1)
            start = stop

            alpha = np.zeros((n, T, self.n_states))
            scale = np.zeros((n, T))
            alpha[:, 0] = self.initial_ * b[:, 0]
            scale[:, 0] = alpha[:, 0].sum(axis=1)
            alpha[:, 0] /= np.maximum(scale[:, 0], _MIN_PROB)[:, None]
            for t in range(1, T):
                alpha[:, t] = (alpha[:, t - 1, None, :] @ A)[:, 0] * b[:, t]
                scale[:, t] = alpha[:, t].sum(axis=1)
                alpha[:, t] /= np.maximum(scale[:, t], _MIN_PROB)[:, None]

            beta = np.zeros((n, T, self.n_states))
            beta[:, -1] = 1.0
            for t in range(T - 2, -1, -1):
                w = b[:, t + 1] * beta[:, t + 1]
                beta[:, t] = (A @ w[:, :, None])[:, :, 0]
                beta[:, t] /= np.maximum(scale[:, t + 1], _MIN_PROB)[:, None]

            gamma = alpha * beta
            gamma /= np.clip(gamma.sum(axis=2, keepdims=True), _MIN_PROB, None)
            ll = np.log(np.clip(scale, _MIN_PROB, None)).sum(axis=1) + offset
            results.append((b, alpha, beta, gamma, ll))
        return results

    # ------------------------------------------------------------ public API
    def fit(self, sequences: list[np.ndarray]) -> "GaussianHMM":
        """Baum-Welch over a list of (T_i, n_features) sequences."""
        if not sequences:
            raise ValueError("need at least one sequence")
        sequences = _as_sequences(sequences)
        n_features = sequences[0].shape[1]
        stacked = np.vstack(sequences)
        rng = resolve_rng(self.seed)
        batch = _Batch(sequences)
        squares = [X * X for X in batch.X]

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

        # Per-sequence statistics, rows in the callers' sequence order; a
        # single-frame sequence has no transitions and adds zeros.
        N, S = batch.n_sequences, self.n_states
        ll = np.empty(N)
        first = np.empty((N, S))
        trans = np.zeros((N, S, S))
        occupancy = np.empty((N, S))
        mean_num = np.empty((N, S, n_features))
        var_num = np.empty((N, S, n_features))

        self.log_likelihood_history_ = []
        prev_ll = -np.inf
        for _ in range(self.n_iterations):
            groups = zip(batch.index, batch.X, squares, self._e_step(batch))
            for index, X, X2, (b, alpha, beta, gamma, seq_ll) in groups:
                ll[index] = seq_ll
                first[index] = gamma[:, 0]
                if X.shape[1] > 1:
                    # xi[t] proportional to alpha[t] A b[t+1] beta[t+1]
                    xi = (
                        alpha[:, :-1, :, None]
                        * self.transitions_
                        * (b[:, 1:] * beta[:, 1:])[:, :, None, :]
                    )
                    xi /= np.clip(xi.sum(axis=(2, 3), keepdims=True), _MIN_PROB, None)
                    trans[index] = xi.sum(axis=1)
                occupancy[index] = gamma.sum(axis=1)
                gamma_t = gamma.transpose(0, 2, 1)
                mean_num[index] = gamma_t @ X
                var_num[index] = gamma_t @ X2

            # Sum over sequences one after another from zero, in order: the
            # sums a sequence-at-a-time loop accumulates, bit for bit. (Not
            # ``sum()``, which compensates from Python 3.12, nor a 1-D
            # ``np.sum``, which sums pairwise.)
            total_ll = 0.0
            for value in ll.tolist():
                total_ll += value
            init_acc, trans_acc, gamma_sum, mean_acc, var_acc = (
                np.add.reduce(stat, axis=0, initial=0.0)
                for stat in (first, trans, occupancy, mean_num, var_num)
            )

            self.initial_ = init_acc / init_acc.sum()
            row_sums = np.clip(trans_acc.sum(axis=1, keepdims=True), _MIN_PROB, None)
            self.transitions_ = trans_acc / row_sums
            denom = np.clip(gamma_sum[:, None], _MIN_PROB, None)
            self.means_ = mean_acc / denom
            self.variances_ = (var_acc / denom - self.means_**2).clip(_MIN_VAR, None)

            self.log_likelihood_history_.append(total_ll)
            if abs(total_ll - prev_ll) < self.tol * max(abs(prev_ll), 1.0):
                break
            prev_ll = total_ll

        self._fitted = True
        return self

    def posteriors(self, sequences: list[np.ndarray]) -> list[tuple[np.ndarray, float]]:
        """``(gamma, log_likelihood)`` per sequence, from one E-step: gamma
        is the (T_i, n_states) per-frame state posterior."""
        self._check()
        sequences = _as_sequences(sequences, self.means_.shape[1])
        batch = _Batch(sequences)
        out: list = [None] * batch.n_sequences
        for index, (_, _, _, gamma, ll) in zip(batch.index, self._e_step(batch)):
            for row, position in enumerate(index.tolist()):
                out[position] = (gamma[row], float(ll[row]))
        return out

    def posterior(self, sequence: np.ndarray) -> np.ndarray:
        """Per-frame state posteriors gamma: (T, n_states)."""
        return self.posteriors([sequence])[0][0]

    def viterbi(self, sequence: np.ndarray) -> np.ndarray:
        """Most likely state path."""
        self._check()
        (seq,) = _as_sequences([sequence], self.means_.shape[1])
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
        return self.posteriors([sequence])[0][1]

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
            raise NotFittedError("GaussianHMM")
