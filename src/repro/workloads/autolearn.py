"""Autolearn pipeline (paper section VII-A).

Stages: ``dataset -> zernike -> featgen -> select -> model``.

"The Autolearn pipeline is built for image classification of digits using
Zernike moments as features. In the first three pre-processing steps ...
Autolearn [Kaul et al. 2017] algorithm is employed to generate and select
features automatically. In the last step, an AdaBoost classifier is built."

1. *zernike* — Zernike-moment extraction from the digit images; schema
   variant 1 raises the maximum moment order (wider feature matrix);
2. *featgen* — Autolearn-style generated features: for the most correlated
   feature pairs, ridge-regress one feature on the other and append the
   predicted/residual signals as new features;
3. *select* — keep the top-m features by ANOVA-style F score;
4. *model* — AdaBoost over decision stumps.

Pre-processing (glyph rendering, Zernike extraction and feature
generation) dominates this pipeline's cost,
matching the paper's iteration-5/9 observations for Autolearn in Fig. 6.
"""

from __future__ import annotations

import numpy as np

from ..core.component import DatasetComponent
from ..core.semver import SemVer
from ..data.synthetic.digits import make_digits
from ..ml.boosting import AdaBoostClassifier
from ..ml.linear import RidgeRegression
from ..ml.metrics import accuracy
from ..ml.utils import train_test_split
from ..ml.zernike import ZernikeExtractor
from .base import Workload

_MAX_ORDERS = (10, 12)  # schema variant -> Zernike max order
_N_GENERATED_PAIRS = 40
_N_CANDIDATE_PAIRS = 300
_N_FOLDS = 3
_N_SELECTED = 30


def _zernike_fn(payload: dict, params: dict, rng) -> dict:
    images, labels = payload["images"], payload["labels"]
    gamma = float(params["gamma"])
    if gamma != 1.0:
        # per-version contrast correction: a continuous knob, so every
        # version's output is genuinely (if mildly) different
        images = np.power(images.clip(0.0, 1.0), gamma)
    extractor = ZernikeExtractor(max_order=int(params["max_order"]))
    X = extractor.transform(images)
    return {"X": X, "y": labels}


def _stability_scores(X: np.ndarray, I: np.ndarray, J: np.ndarray, alpha: float) -> np.ndarray:
    """Cross-validated R² of predicting feature ``J[p]`` from ``I[p]``, for
    every candidate pair ``p`` at once.

    Autolearn keeps only the *stably related* feature pairs; CV fit quality
    over ``_N_FOLDS`` contiguous folds is the stability criterion. A pair
    whose held-out rows do not vary scores 0.

    Each fold is the one-column ``RidgeRegression`` fit and predict, run
    for all pairs together in shapes that keep its bits: means are
    reductions over contiguous ``(P, m)`` rows (the pairwise sums of the
    1-D ``mean``), the Gram and right-hand side are ``(P, 1, m) @ (P, m,
    1)`` products (one ``dot`` per pair, as ``Xc.T @ Xc`` makes), the 1×1
    systems go through one batched ``np.linalg.solve`` and the per-fold
    SSE and SST are added in fold order.
    """
    n = X.shape[0]
    xi = np.ascontiguousarray(X[:, I].T)  # (P, n)
    xj = np.ascontiguousarray(X[:, J].T)
    fold_size = n // _N_FOLDS
    sse = np.zeros(I.size)
    sst = np.zeros(I.size)
    for fold in range(_N_FOLDS):
        lo, hi = fold * fold_size, (fold + 1) * fold_size if fold < _N_FOLDS - 1 else n
        xi_train = np.concatenate([xi[:, :lo], xi[:, hi:]], axis=1)  # (P, m)
        xj_train = np.concatenate([xj[:, :lo], xj[:, hi:]], axis=1)
        xi_test = np.ascontiguousarray(xi[:, lo:hi])  # (P, k)
        xj_test = np.ascontiguousarray(xj[:, lo:hi])
        x_mean = xi_train.mean(axis=1)
        y_mean = xj_train.mean(axis=1)
        xc = (xi_train - x_mean[:, None])[:, None, :]  # (P, 1, m)
        yc = (xj_train - y_mean[:, None])[:, :, None]  # (P, m, 1)
        gram = xc @ xc.transpose(0, 2, 1) + alpha
        weights = np.linalg.solve(gram, xc @ yc)  # (P, 1, 1)
        bias = y_mean - (x_mean[:, None, None] @ weights)[:, 0, 0]
        predicted = (xi_test[:, :, None] @ weights)[:, :, 0] + bias[:, None]
        sse += ((xj_test - predicted) ** 2).sum(axis=1)
        sst += ((xj_test - y_mean[:, None]) ** 2).sum(axis=1)
    scores = np.zeros(I.size)
    varies = ~(sst <= 0)
    scores[varies] = 1.0 - sse[varies] / sst[varies]
    return scores


def _featgen_fn(payload: dict, params: dict, rng) -> dict:
    """Autolearn feature generation: CV-score candidate feature pairs,
    keep the most stable ones, and emit predicted + residual signals.

    The candidates are the ``n_candidates`` most correlated ordered pairs;
    :func:`_stability_scores` scores them all in one batched pass, and
    the ``n_pairs`` best (candidate order on a tie) each get a full-data
    ridge fit.
    """
    X, y = payload["X"], payload["y"]
    n = X.shape[0]
    if n < _N_FOLDS:
        raise ValueError(f"featgen needs at least {_N_FOLDS} rows for {_N_FOLDS}-fold CV, got {n}")
    alpha = float(params["ridge_alpha"])
    n_pairs = int(params["n_pairs"])
    n_candidates = int(params["n_candidates"])
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    corr = np.corrcoef(X, rowvar=False)
    np.fill_diagonal(corr, 0.0)
    flat = np.abs(np.nan_to_num(corr)).ravel()
    I, J = np.divmod(np.argsort(-flat, kind="stable"), X.shape[1])
    off_diagonal = I != J
    I, J = I[off_diagonal][:n_candidates], J[off_diagonal][:n_candidates]
    best = np.argsort(-_stability_scores(X, I, J, alpha), kind="stable")[:n_pairs]
    generated = np.zeros((n, 2 * best.size))
    for k, (i, j) in enumerate(zip(I[best], J[best])):
        model = RidgeRegression(alpha=alpha).fit(X[:, [i]], X[:, j])
        predicted = model.predict(X[:, [i]])
        generated[:, 2 * k] = predicted
        generated[:, 2 * k + 1] = X[:, j] - predicted  # stable residual
    return {"X": np.hstack([X, generated]), "y": y}


def _select_fn(payload: dict, params: dict, rng) -> dict:
    """Keep the top-m features by a blend of ANOVA F and variance.

    ``f_weight`` mixes the two normalized criteria; versions slide the
    weight so every increment selects a (slightly) different feature set
    while keeping the output width — and thus the schema — stable.
    """
    X, y = payload["X"], payload["y"]
    m = int(params["n_selected"])
    classes = np.unique(y)
    overall_mean = X.mean(axis=0)
    between = np.zeros(X.shape[1])
    within = np.zeros(X.shape[1])
    for c in classes:
        block = X[y == c]
        between += block.shape[0] * (block.mean(axis=0) - overall_mean) ** 2
        within += ((block - block.mean(axis=0)) ** 2).sum(axis=0)
    df_between = max(classes.size - 1, 1)
    df_within = max(X.shape[0] - classes.size, 1)
    f_score = (between / df_between) / (within / df_within + 1e-12)
    variance = X.var(axis=0)

    def normalized(values):
        span = values.max() - values.min()
        return (values - values.min()) / (span + 1e-12)

    w = float(params["f_weight"])
    blended = w * normalized(f_score) + (1.0 - w) * normalized(variance)
    top = np.argsort(-blended, kind="stable")[:m]
    return {"X": X[:, np.sort(top)], "y": y}


def _model_fn(payload: dict, params: dict, rng) -> dict:
    X, y = payload["X"], payload["y"]
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_fraction=0.3, seed=int(params["split_seed"])
    )
    model = AdaBoostClassifier(
        n_estimators=int(params["n_estimators"]),
        n_thresholds=int(params["n_thresholds"]),
    ).fit(X_train, y_train)
    predictions = model.predict(X_test)
    return {
        "metrics": {"accuracy": accuracy(y_test, predictions)},
        "params": model.get_params(),
    }


class AutolearnWorkload(Workload):
    """Pre-processing-dominated digit classification pipeline."""

    stage_names = ("zernike", "featgen", "select", "model")
    schema_stage_name = "select"
    clean_stage_name = "zernike"
    metric = "accuracy"

    @property
    def name(self) -> str:
        return "autolearn"

    def make_dataset(self, day: int = 0) -> DatasetComponent:
        n = self.scaled(400)
        seed = self.seed

        def loader(rng, _n=n, _seed=seed, _day=day):
            images, labels = make_digits(n_samples=_n, size=16, seed=_seed, day=_day)
            return {"images": images, "labels": labels}

        return DatasetComponent(
            name=f"{self.name}.dataset",
            version=SemVer("master", 0, day),
            loader=loader,
            output_schema=self.schema_tag("dataset", 0),
            content_key=f"day{day}",
            description="procedural digit glyph images",
        )

    def _build(self, stage, idx, out_variant, in_variant):
        # Version quality trends upward: cleaner binarization, softer
        # ridge regularization, more boosting rounds.
        if stage == "zernike":
            params = {
                "idx": idx,
                "max_order": _MAX_ORDERS[min(out_variant, len(_MAX_ORDERS) - 1)],
                # strictly increasing contrast correction: later versions
                # sharpen the glyphs; no two versions alias
                "gamma": 1.0 + 0.12 * idx,
            }
            return _zernike_fn, params, False
        if stage == "featgen":
            params = {
                "idx": idx,
                "ridge_alpha": 1.0 / (1.0 + idx),
                "n_pairs": _N_GENERATED_PAIRS,
                "n_candidates": _N_CANDIDATE_PAIRS,
            }
            return _featgen_fn, params, False
        if stage == "select":
            params = {
                "idx": idx,
                "n_selected": _N_SELECTED + 5 * out_variant,
                # slide the criterion blend with the version: selections
                # differ per increment, width (schema) stays fixed
                "f_weight": 1.0 / (1.0 + 0.15 * idx),
            }
            return _select_fn, params, False
        if stage == "model":
            # Quality ladder peaking at idx 3 (see readmission.py).
            estimator_ladder = [10, 16, 22, 30, 25]
            step = min(idx, 4)
            params = {
                "idx": idx,
                "n_estimators": estimator_ladder[step] + 2 * max(idx - 4, 0),
                "n_thresholds": 8,
                "split_seed": 17,
            }
            return _model_fn, params, True
        raise ValueError(f"unknown stage {stage!r}")
