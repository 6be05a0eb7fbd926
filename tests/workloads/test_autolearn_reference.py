"""Autolearn's feature generation against its frozen per-pair reference, bit
for bit.

Every candidate pair is scored in one batched pass now; every score, every
chosen pair and every generated byte must be exactly what the per-pair
loop in ``reference_autolearn.py`` produces, on drawn matrices and on the
input the Autolearn featgen stage really sees. No golden digests: BLAS
builds differ between machines, a reference run on the same machine does
not.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import oracle_settings
from workloads.reference_autolearn import reference_cv_pair_score, reference_featgen_fn
from repro.workloads import ALL_WORKLOADS
from repro.workloads.autolearn import _featgen_fn, _stability_scores

COLUMN_KINDS = ("continuous", "tied", "constant", "copy", "related")

#: featgen's ridge alphas along the version ladder: ``1 / (1 + idx)``.
LADDER_ALPHAS = tuple(1.0 / (1.0 + idx) for idx in range(10))


def make_column(kind: str, n: int, X: np.ndarray, feature: int, rng) -> np.ndarray:
    if kind == "continuous":
        return rng.standard_normal(n)
    if kind == "tied":  # a few distinct values: equal correlations and scores
        return rng.integers(0, 3, n).astype(float)
    if kind == "constant":  # SST == 0: the pair scores 0
        return np.full(n, rng.standard_normal())
    if not feature:
        return rng.standard_normal(n)
    earlier = X[:, int(rng.integers(0, feature))]
    if kind == "copy":  # equal scores across pairs: candidate order decides
        return earlier.copy()
    return 2.0 * earlier + 0.1 * rng.standard_normal(n)  # a stably related pair


@st.composite
def feature_matrices(draw):
    n = draw(st.integers(3, 400))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=2, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.zeros((n, len(kinds)))
    for feature, kind in enumerate(kinds):
        X[:, feature] = make_column(kind, n, X, feature, rng)
    return X


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@oracle_settings(60)
@given(
    feature_matrices(),
    st.sampled_from(LADDER_ALPHAS),
    st.integers(0, 60),
    st.integers(1, 1600),  # often more candidates than there are pairs
)
def test_featgen_matches_the_per_pair_reference(X, alpha, n_pairs, n_candidates):
    params = {"ridge_alpha": alpha, "n_pairs": n_pairs, "n_candidates": n_candidates}
    payload = {"X": X, "y": np.arange(X.shape[0]) % 2}
    change = _featgen_fn(payload, params, None)
    expected = reference_featgen_fn(payload, params, None)
    assert change["X"].shape == expected["X"].shape
    assert change["X"].tobytes() == expected["X"].tobytes()


@oracle_settings(60)
@given(feature_matrices(), st.sampled_from(LADDER_ALPHAS), st.data())
def test_pair_scores_match_the_per_pair_reference(X, alpha, data):
    d = X.shape[1]
    pairs = data.draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), max_size=120))
    I = np.array([i for i, _ in pairs], dtype=np.intp)
    J = np.array([j for _, j in pairs], dtype=np.intp)
    expected = np.array([reference_cv_pair_score(X[:, i], X[:, j], alpha) for i, j in pairs])
    assert np.array_equal(_stability_scores(X, I, J, alpha), expected)


@pytest.fixture(scope="module", params=(0, 3))
def featgen_inputs(request):
    """What the Autolearn featgen stage is handed at scale 0.5, per seed and
    per zernike schema variant."""
    workload = ALL_WORKLOADS["autolearn"](scale=0.5, seed=request.param)
    rng = np.random.default_rng(0)
    raw = workload.make_dataset().materialize(rng)
    payloads = {v: workload.stage_version("zernike", 0, v).run(raw, rng) for v in (0, 1)}
    return workload, payloads


@pytest.mark.parametrize("variant", (0, 1))
@pytest.mark.parametrize("idx", (0, 3, 6))
def test_featgen_stage_matches_the_reference(featgen_inputs, variant, idx):
    workload, payloads = featgen_inputs
    params = workload.stage_version("featgen", idx).params
    change = _featgen_fn(payloads[variant], params, None)
    expected = reference_featgen_fn(payloads[variant], params, None)
    assert change["X"].shape[1] == payloads[variant]["X"].shape[1] + 2 * params["n_pairs"]
    assert change["X"].tobytes() == expected["X"].tobytes()


def test_stacked_unit_products_run_one_dot_per_pair():
    """The pair scorer's ``(P, 1, m) @ (P, m, 1)`` is each pair's own
    ``Xc.T @ Xc`` on an ``(m, 1)`` column, byte for byte; a numpy or BLAS
    that dispatches the stack differently fails here by name."""
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((31, 267))
    xc = rows[:, None, :]
    stacked = (xc @ xc.transpose(0, 2, 1))[:, 0, 0]
    columns = [row.reshape(-1, 1).copy() for row in rows]
    assert stacked.tobytes() == np.array([(c.T @ c)[0, 0] for c in columns]).tobytes()
