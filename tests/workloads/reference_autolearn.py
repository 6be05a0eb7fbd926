"""Frozen reference: Autolearn's pair scorer and feature generation as they
stood at ``545fc31``, when every candidate pair was scored with its own
three one-column ridge fits.

Production now scores all candidate pairs in one batched pass
(``_stability_scores`` in ``repro/workloads/autolearn.py``), so it can no
longer vouch for itself. These copies are the oracle
``test_autolearn_reference.py`` compares it against, bit for bit. They are
verbatim but for the names (``_cv_pair_score`` ->
``reference_cv_pair_score``, ``_featgen_fn`` -> ``reference_featgen_fn``).
Do not tidy them; change them only when the semantics of the feature
generation are changed on purpose, and say so here.

Import as ``from workloads.reference_autolearn import ...`` (``tests/`` is
on ``sys.path``, see ``conftest.py``).
"""

from __future__ import annotations

import numpy as np

from repro.ml.linear import RidgeRegression


def reference_cv_pair_score(xi: np.ndarray, xj: np.ndarray, alpha: float, n_folds: int = 3) -> float:
    """Cross-validated R² of predicting feature j from feature i.

    Autolearn keeps only the *stably related* feature pairs; CV fit quality
    is the stability criterion.
    """
    n = xi.shape[0]
    fold_size = n // n_folds
    total_sse, total_sst = 0.0, 0.0
    for fold in range(n_folds):
        lo, hi = fold * fold_size, (fold + 1) * fold_size if fold < n_folds - 1 else n
        test = np.zeros(n, dtype=bool)
        test[lo:hi] = True
        model = RidgeRegression(alpha=alpha).fit(xi[~test, None], xj[~test])
        predicted = model.predict(xi[test, None])
        total_sse += float(((xj[test] - predicted) ** 2).sum())
        total_sst += float(((xj[test] - xj[~test].mean()) ** 2).sum())
    if total_sst <= 0:
        return 0.0
    return 1.0 - total_sse / total_sst


def reference_featgen_fn(payload: dict, params: dict, rng) -> dict:
    """Autolearn feature generation: CV-score candidate feature pairs,
    keep the most stable ones, and emit predicted + residual signals."""
    X, y = payload["X"], payload["y"]
    alpha = float(params["ridge_alpha"])
    n_pairs = int(params["n_pairs"])
    n_candidates = int(params["n_candidates"])
    corr = np.corrcoef(X, rowvar=False)
    np.fill_diagonal(corr, 0.0)
    flat = np.abs(np.nan_to_num(corr)).ravel()
    order = np.argsort(-flat, kind="stable")
    d = X.shape[1]
    candidates: list[tuple[int, int]] = []
    seen = set()
    for position in order:
        i, j = divmod(int(position), d)
        if i == j or (i, j) in seen:
            continue
        seen.add((i, j))
        candidates.append((i, j))
        if len(candidates) >= n_candidates:
            break
    scored = [
        (reference_cv_pair_score(X[:, i], X[:, j], alpha), i, j) for i, j in candidates
    ]
    scored.sort(key=lambda item: -item[0])
    chosen = [(i, j) for _, i, j in scored[:n_pairs]]
    generated = np.zeros((X.shape[0], 2 * len(chosen)))
    for k, (i, j) in enumerate(chosen):
        model = RidgeRegression(alpha=alpha).fit(X[:, [i]], X[:, j])
        predicted = model.predict(X[:, [i]])
        generated[:, 2 * k] = predicted
        generated[:, 2 * k + 1] = X[:, j] - predicted  # stable residual
    return {"X": np.hstack([X, generated]), "y": y}

