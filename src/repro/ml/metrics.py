"""Evaluation metrics and the paper's score() convention.

The metric-driven merge (paper section V) selects ``argmax score(p)`` over
candidate pipelines; "for example, we can use score = 1/MSE as a score
function for a pipeline whose performance metric is MSE". Metrics here all
return plain floats; :func:`score_from_metric` converts a named metric value
into a higher-is-better score exactly as the paper prescribes; it is
defined in :mod:`repro.core.executor` and re-exported here.
"""

from __future__ import annotations

import numpy as np

from ..core.executor import HIGHER_IS_BETTER, LOWER_IS_BETTER, score_from_metric  # noqa: F401


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot score empty arrays")
    return float(np.mean(y_true == y_pred))


def mse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return float(np.mean((y_true - y_pred) ** 2))


def log_loss(y_true, proba, eps: float = 1e-12) -> float:
    """Binary or one-vs-rest multiclass cross-entropy."""
    y_true = np.asarray(y_true).ravel()
    proba = np.asarray(proba, dtype=np.float64)
    clipped = np.clip(proba, eps, 1.0 - eps)
    if clipped.ndim == 1:
        return float(-np.mean(
            y_true * np.log(clipped) + (1 - y_true) * np.log(1 - clipped)
        ))
    n = y_true.shape[0]
    return float(-np.mean(np.log(clipped[np.arange(n), y_true.astype(int)])))


def roc_auc(y_true, scores) -> float:
    """Binary AUC via the Mann-Whitney U statistic (tie-aware)."""
    y_true = np.asarray(y_true).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    pos = scores[y_true == 1]
    neg = scores[y_true == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("roc_auc needs both classes present")
    order = np.argsort(np.concatenate([neg, pos]), kind="mergesort")
    ranks = np.empty(order.size, dtype=np.float64)
    sorted_scores = np.concatenate([neg, pos])[order]
    # average ranks for ties
    i = 0
    while i < order.size:
        j = i
        while j + 1 < order.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_pos = ranks[neg.size :].sum()
    u = rank_pos - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def f1_score(y_true, y_pred, positive=1) -> float:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    tp = np.sum((y_pred == positive) & (y_true == positive))
    fp = np.sum((y_pred == positive) & (y_true != positive))
    fn = np.sum((y_pred != positive) & (y_true == positive))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2 * precision * recall / (precision + recall))


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    classes = np.unique(np.concatenate([y_true, y_pred]))
    index = {c: i for i, c in enumerate(classes)}
    out = np.zeros((classes.size, classes.size), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        out[index[t], index[p]] += 1
    return out
