"""Frozen reference: the stump and the boosting loop as they stood at
``f1f4db7``, when every round's stump re-derived its split grid from ``X``.

Production now builds the grid once per ``AdaBoostClassifier.fit`` and
re-scores it each round, so it can no longer vouch for itself. These
copies are the per-round oracle ``test_boosting_reference.py`` compares
it against, bit for bit. They are verbatim but for the class names and
two changes of semantics made on purpose since, marked below: a stump
with no valid split predicts the weighted-majority class on both sides
(it predicted class index 0), and the boosting loop records the fitted
width that ``predict`` checks. Do not tidy them; change them only when the
semantics of a stump or of a boosting round are changed on purpose.

Import as ``from ml.reference_boosting import ...`` (``tests/`` is on
``sys.path``, see ``conftest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import as_2d, encode_labels
from repro.ml.boosting import AdaBoostClassifier, DecisionStump


class ReferenceDecisionStump(DecisionStump):
    """``DecisionStump.fit`` as it stood at ``f1f4db7``."""

    def fit(self, X: np.ndarray, y_idx: np.ndarray, weights: np.ndarray, n_classes: int):
        X = as_2d(X)
        best_err = np.inf
        quantiles = np.linspace(0.05, 0.95, self.n_thresholds)
        # Per-class weight rows (C, n): lets every threshold's side scores
        # be computed with one matrix product per feature.
        class_weights = np.zeros((n_classes, X.shape[0]))
        class_weights[y_idx, np.arange(X.shape[0])] = weights
        total_per_class = class_weights.sum(axis=1)  # (C,)
        total_weight = weights.sum()
        # Changed on purpose since f1f4db7: was left at class index 0.
        self.left_class_ = self.right_class_ = int(total_per_class.argmax())

        for feature in range(X.shape[1]):
            column = X[:, feature]
            thresholds = np.unique(np.quantile(column, quantiles))
            left_mask = column[:, None] <= thresholds[None, :]  # (n, t)
            n_left = left_mask.sum(axis=0)
            valid = (n_left > 0) & (n_left < X.shape[0])
            if not valid.any():
                continue
            left_scores = class_weights @ left_mask  # (C, t)
            right_scores = total_per_class[:, None] - left_scores
            err = (
                total_weight
                - left_scores.max(axis=0)
                - right_scores.max(axis=0)
            )
            err[~valid] = np.inf
            pick = int(np.argmin(err))
            if err[pick] < best_err:
                best_err = float(err[pick])
                self.feature_ = feature
                self.threshold_ = float(thresholds[pick])
                self.left_class_ = int(left_scores[:, pick].argmax())
                self.right_class_ = int(right_scores[:, pick].argmax())
        return self


class ReferenceAdaBoostClassifier(AdaBoostClassifier):
    """``AdaBoostClassifier.fit`` as it stood at ``f1f4db7``: a fresh stump
    fitted from ``X`` every round."""

    def fit(self, X, y) -> "ReferenceAdaBoostClassifier":
        X = as_2d(X)
        self.classes_, y_idx = encode_labels(y)
        # Added on purpose since f1f4db7: the width ``predict`` checks.
        self.n_features_ = X.shape[1]
        n_classes = self.classes_.size
        n = X.shape[0]
        weights = np.full(n, 1.0 / n)
        self.stumps_, self.alphas_ = [], []

        for _ in range(self.n_estimators):
            stump = ReferenceDecisionStump(self.n_thresholds).fit(X, y_idx, weights, n_classes)
            pred = stump.predict_idx(X)
            wrong = pred != y_idx
            err = float(weights[wrong].sum())
            if err >= 1.0 - 1.0 / n_classes:
                break  # weaker than chance: stop boosting
            err = max(err, 1e-12)
            alpha = np.log((1.0 - err) / err) + np.log(n_classes - 1.0)
            self.stumps_.append(stump)
            self.alphas_.append(float(alpha))
            weights = weights * np.exp(alpha * wrong)
            weights /= weights.sum()
            if err < 1e-10:
                break  # perfect stump, nothing left to reweight
        if not self.stumps_:
            # Degenerate input: keep the first stump anyway so predict works.
            stump = ReferenceDecisionStump(self.n_thresholds).fit(X, y_idx, weights, n_classes)
            self.stumps_ = [stump]
            self.alphas_ = [1.0]
        self._mark_fitted()
        return self
