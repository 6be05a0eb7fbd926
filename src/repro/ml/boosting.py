"""Decision stumps and AdaBoost (SAMME) for the Autolearn pipeline.

The Autolearn pipeline's final step builds "an AdaBoost classifier ... for
the image classification task" (paper section VII-A). SAMME generalizes
the classic two-class AdaBoost to the 10-class digit problem.

A stump's candidate splits depend on ``X`` alone; only the sample weights
change between boosting rounds. So the split grid (:func:`_split_grid`) is
built once per ``AdaBoostClassifier.fit`` and every round's stump does
only the weighted part (:meth:`DecisionStump._fit_grid`). A standalone
``DecisionStump.fit`` builds the grid for its one call: there is one
scoring path.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, as_2d, encode_labels

#: One candidate feature: ``(feature, thresholds, left_mask, invalid)`` —
#: the distinct quantile thresholds ``(t,)``, the ``(n, t)`` boolean mask
#: ``column <= threshold`` and the ``(t,)`` flags of thresholds that leave
#: one side empty.
SplitGrid = list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]


def _check_thresholds(n_thresholds: int) -> None:
    if n_thresholds < 1:
        raise ValueError(f"n_thresholds must be >= 1, got {n_thresholds}")


def _split_grid(X: np.ndarray, n_thresholds: int) -> SplitGrid:
    """Every feature's candidate splits over a quantile grid of ``X``.

    A feature with no valid split (every threshold leaves one side empty)
    is left out.
    """
    quantiles = np.linspace(0.05, 0.95, n_thresholds)
    n = X.shape[0]
    grid: SplitGrid = []
    for feature in range(X.shape[1]):
        column = X[:, feature]
        thresholds = np.unique(np.quantile(column, quantiles))
        left_mask = column[:, None] <= thresholds[None, :]  # (n, t)
        n_left = left_mask.sum(axis=0)
        valid = (n_left > 0) & (n_left < n)
        if valid.any():
            grid.append((feature, thresholds, left_mask, ~valid))
    return grid


class DecisionStump:
    """Depth-1 decision tree: threshold on one feature, weighted classes.

    ``fit`` minimizes weighted misclassification over a quantile grid of
    candidate thresholds per feature, predicting the weighted-majority
    class on each side of the split. With no valid split on any feature,
    both sides predict the weighted-majority class overall.
    """

    def __init__(self, n_thresholds: int = 12):
        _check_thresholds(n_thresholds)
        self.n_thresholds = n_thresholds
        self.feature_: int = -1
        self.threshold_: float = 0.0
        self.left_class_: int = 0
        self.right_class_: int = 0

    def fit(self, X: np.ndarray, y_idx: np.ndarray, weights: np.ndarray, n_classes: int):
        return self._fit_grid(
            _split_grid(as_2d(X), self.n_thresholds), y_idx, weights, n_classes
        )

    def _fit_grid(
        self, grid: SplitGrid, y_idx: np.ndarray, weights: np.ndarray, n_classes: int
    ) -> "DecisionStump":
        """Pick the best split of ``grid`` under ``weights``.

        The side scores are one ``(C, n) @ (n, t)`` product per feature,
        against that feature's boolean mask. One product over all features
        at once, ``(C, n) @ (n, sum t)``, is not bit-identical: BLAS sums
        in another order, the last bits move, and with them ties in the
        ``argmin``, so the per-feature shape stays.
        """
        n = weights.shape[0]
        # Per-class weight rows (C, n): lets every threshold's side scores
        # be computed with one matrix product per feature.
        class_weights = np.zeros((n_classes, n))
        class_weights[y_idx, np.arange(n)] = weights
        total_per_class = class_weights.sum(axis=1)  # (C,)
        total_weight = weights.sum()
        self.left_class_ = self.right_class_ = int(total_per_class.argmax())
        best_err = np.inf

        for feature, thresholds, left_mask, invalid in grid:
            left_scores = class_weights @ left_mask  # (C, t)
            right_scores = total_per_class[:, None] - left_scores
            err = (
                total_weight
                - left_scores.max(axis=0)
                - right_scores.max(axis=0)
            )
            err[invalid] = np.inf
            pick = int(np.argmin(err))
            if err[pick] < best_err:
                best_err = float(err[pick])
                self.feature_ = feature
                self.threshold_ = float(thresholds[pick])
                self.left_class_ = int(left_scores[:, pick].argmax())
                self.right_class_ = int(right_scores[:, pick].argmax())
        return self

    def predict_idx(self, X: np.ndarray) -> np.ndarray:
        X = as_2d(X)
        left = X[:, self.feature_] <= self.threshold_
        return np.where(left, self.left_class_, self.right_class_)


class AdaBoostClassifier(Classifier):
    """SAMME multi-class AdaBoost over decision stumps.

    ``fit`` builds the stumps' split grid once; each boosting round only
    re-scores it under the new weights.
    """

    def __init__(self, n_estimators: int = 40, n_thresholds: int = 12):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        _check_thresholds(n_thresholds)
        self.n_estimators = n_estimators
        self.n_thresholds = n_thresholds
        self.stumps_: list[DecisionStump] = []
        self.alphas_: list[float] = []

    def fit(self, X, y) -> "AdaBoostClassifier":
        X = as_2d(X)
        self.classes_, y_idx = encode_labels(y)
        n_classes = self.classes_.size
        n = X.shape[0]
        weights = np.full(n, 1.0 / n)
        grid = _split_grid(X, self.n_thresholds)
        self.stumps_, self.alphas_ = [], []

        for _ in range(self.n_estimators):
            stump = DecisionStump(self.n_thresholds)._fit_grid(grid, y_idx, weights, n_classes)
            pred = stump.predict_idx(X)
            wrong = pred != y_idx
            err = float(weights[wrong].sum())
            if err >= 1.0 - 1.0 / n_classes:
                if not self.stumps_:
                    # Degenerate input: keep the first stump anyway so predict works.
                    self.stumps_, self.alphas_ = [stump], [1.0]
                break  # weaker than chance: stop boosting
            err = max(err, 1e-12)
            alpha = np.log((1.0 - err) / err) + np.log(n_classes - 1.0)
            self.stumps_.append(stump)
            self.alphas_.append(float(alpha))
            weights = weights * np.exp(alpha * wrong)
            weights /= weights.sum()
            if err < 1e-10:
                break  # perfect stump, nothing left to reweight
        self._mark_fitted()
        return self

    def _votes(self, X) -> np.ndarray:
        X = as_2d(X)
        n_classes = self.classes_.size
        votes = np.zeros((X.shape[0], n_classes))
        for stump, alpha in zip(self.stumps_, self.alphas_):
            pred = stump.predict_idx(X)
            votes[np.arange(X.shape[0]), pred] += alpha
        return votes

    def predict_proba(self, X) -> np.ndarray:
        self.check_fitted()
        votes = self._votes(X)
        total = votes.sum(axis=1, keepdims=True)
        total[total == 0] = 1.0
        return votes / total

    def get_params(self) -> dict:
        self.check_fitted()
        return {
            "features": np.array([s.feature_ for s in self.stumps_], dtype=np.int64),
            "thresholds": np.array([s.threshold_ for s in self.stumps_]),
            "left_classes": np.array([s.left_class_ for s in self.stumps_], dtype=np.int64),
            "right_classes": np.array([s.right_class_ for s in self.stumps_], dtype=np.int64),
            "alphas": np.array(self.alphas_),
        }
