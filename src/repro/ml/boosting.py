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

The grid stacks the features by threshold count ``t``, so a round scores
a whole group with one stacked product ``(C, n) @ (G, n, t)``: one
``(C, n) @ (n, t)`` gemm per feature, the same call a per-feature loop
makes, so every side score keeps its bits. Features are never padded to a
common ``t``: ``(C, n) @ (n, 8)`` sums in another order than
``(C, n) @ (n, 3)``, and the last bits decide near-ties in the ``argmin``.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, as_2d, check_width, encode_labels

#: One group of candidate features sharing a threshold count ``t``:
#: ``(features, thresholds, masks, invalid)`` — the ``(G,)`` feature
#: indices in increasing order, their ``(G, t)`` distinct quantile
#: thresholds, the ``(G, n, t)`` float masks ``column <= threshold`` and
#: the ``(G, t)`` flags of thresholds that leave one side empty.
SplitGroup = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _check_thresholds(n_thresholds: int) -> None:
    if n_thresholds < 1:
        raise ValueError(f"n_thresholds must be >= 1, got {n_thresholds}")


def _split_grid(X: np.ndarray, n_thresholds: int) -> list[SplitGroup]:
    """Every feature's candidate splits over a quantile grid of ``X``,
    grouped by threshold count.

    A feature with no valid split (every threshold leaves one side empty)
    is left out.
    """
    n = X.shape[0]
    quantiles = np.quantile(X, np.linspace(0.05, 0.95, n_thresholds), axis=0)  # (q, d)
    groups: dict[int, list[tuple]] = {}
    for feature in range(X.shape[1]):
        thresholds = np.unique(quantiles[:, feature])
        left_mask = X[:, feature, None] <= thresholds  # (n, t)
        n_left = left_mask.sum(axis=0)
        valid = (n_left > 0) & (n_left < n)
        if valid.any():
            groups.setdefault(thresholds.size, []).append(
                (feature, thresholds, left_mask, ~valid)
            )
    return [
        (
            np.array(features),
            np.stack(thresholds),
            np.stack(masks).astype(np.float64),
            np.stack(invalid),
        )
        for features, thresholds, masks, invalid in (zip(*group) for group in groups.values())
    ]


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
        self, grid: list[SplitGroup], y_idx: np.ndarray, weights: np.ndarray, n_classes: int
    ) -> "DecisionStump":
        """Pick the best split of ``grid`` under ``weights``.

        Each feature's pick is its first lowest-error threshold; the split
        is the lowest error over all features, the lowest feature index on
        a tie.
        """
        n = weights.shape[0]
        # Per-class weight rows (C, n): lets every threshold's side scores
        # be computed with one matrix product per feature.
        class_weights = np.zeros((n_classes, n))
        class_weights[y_idx, np.arange(n)] = weights
        total_per_class = class_weights.sum(axis=1)  # (C,)
        total_weight = weights.sum()
        self.left_class_ = self.right_class_ = int(total_per_class.argmax())
        best = (np.inf, -1)  # (error, feature)

        for features, thresholds, masks, invalid in grid:
            left_scores = np.matmul(class_weights, masks)  # (G, C, t)
            right_scores = total_per_class[:, None] - left_scores
            err = (
                total_weight
                - left_scores.max(axis=1)
                - right_scores.max(axis=1)
            )  # (G, t)
            err[invalid] = np.inf
            picks = err.argmin(axis=1)
            errors = err[np.arange(features.size), picks]
            g = int(errors.argmin())
            candidate = (float(errors[g]), int(features[g]))
            if candidate < best:
                best = candidate
                pick = picks[g]
                self.feature_ = candidate[1]
                self.threshold_ = float(thresholds[g, pick])
                self.left_class_ = int(left_scores[g, :, pick].argmax())
                self.right_class_ = int(right_scores[g, :, pick].argmax())
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
        self.n_features_ = 0

    def fit(self, X, y) -> "AdaBoostClassifier":
        X = as_2d(X)
        n, d = X.shape
        if n == 0:
            raise ValueError("X has 0 rows: nothing to fit")
        if d == 0:
            raise ValueError(f"X has {n} rows but 0 feature columns")
        self.classes_, y_idx = encode_labels(y, n)
        self.n_features_ = d
        n_classes = self.classes_.size
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
        check_width(X, self.n_features_)
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
