"""Boosting against its frozen per-round reference, bit for bit.

The split grid is built once per fit now; every stump, every learned
parameter and every probability must be exactly what the per-round loop
in ``reference_boosting.py`` produces, on drawn inputs and on the input
the Autolearn model stage really sees. No golden digests: BLAS builds
differ between machines, a reference run on the same machine does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ml.reference_boosting import ReferenceAdaBoostClassifier, ReferenceDecisionStump
from repro.ml.boosting import AdaBoostClassifier, DecisionStump
from repro.ml.utils import train_test_split
from repro.workloads import ALL_WORKLOADS

COLUMN_KINDS = ("continuous", "tied", "constant", "skewed", "copy")


def make_column(kind: str, n: int, X: np.ndarray, feature: int, rng) -> np.ndarray:
    if kind == "continuous":
        return rng.standard_normal(n)
    if kind == "tied":  # a few distinct values: thresholds collapse in np.unique
        return rng.integers(0, 3, n).astype(float)
    if kind == "constant":  # no valid split at all
        return np.full(n, rng.standard_normal())
    if kind == "skewed":  # every quantile at the max: usually no valid split
        column = np.ones(n)
        column[: max(1, n // 25)] = 0.0
        return rng.permutation(column)
    # an earlier column again: equal errors across features, first one wins
    return X[:, int(rng.integers(0, feature))].copy() if feature else rng.standard_normal(n)


@st.composite
def boosting_inputs(draw):
    n = draw(st.integers(2, 400))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=40))
    n_classes = draw(st.integers(2, 10))
    n_thresholds = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.zeros((n, len(kinds)))
    for feature, kind in enumerate(kinds):
        X[:, feature] = make_column(kind, n, X, feature, rng)
    y = rng.integers(0, n_classes, n)
    y[:2] = [0, 1]  # at least two classes
    weights = rng.exponential(size=n)
    weights /= weights.sum()
    return X, y, weights, n_thresholds


def stump_state(stump: DecisionStump) -> tuple:
    return (stump.feature_, stump.threshold_, stump.left_class_, stump.right_class_)


def assert_same_model(change: AdaBoostClassifier, reference: AdaBoostClassifier, X) -> None:
    params, expected = change.get_params(), reference.get_params()
    assert params.keys() == expected.keys()
    for key in expected:
        assert params[key].dtype == expected[key].dtype, key
        assert np.array_equal(params[key], expected[key]), key
    assert np.array_equal(change.predict_proba(X), reference.predict_proba(X))


@settings(max_examples=60, deadline=None)
@given(boosting_inputs(), st.integers(1, 30))
def test_adaboost_matches_the_per_round_reference(inputs, n_estimators):
    X, y, _, n_thresholds = inputs
    change = AdaBoostClassifier(n_estimators, n_thresholds).fit(X, y)
    reference = ReferenceAdaBoostClassifier(n_estimators, n_thresholds).fit(X, y)
    assert_same_model(change, reference, X)


@settings(max_examples=60, deadline=None)
@given(boosting_inputs())
def test_stump_matches_the_reference_under_non_uniform_weights(inputs):
    X, y, weights, n_thresholds = inputs
    n_classes = int(y.max()) + 1
    change = DecisionStump(n_thresholds).fit(X, y, weights, n_classes)
    reference = ReferenceDecisionStump(n_thresholds).fit(X, y, weights, n_classes)
    assert stump_state(change) == stump_state(reference)


@pytest.fixture(scope="module")
def autolearn_model_input():
    """What the Autolearn model stage is handed at scale 0.3, seed 0."""
    workload = ALL_WORKLOADS["autolearn"](scale=0.3, seed=0)
    components = workload.initial_components()
    rng = np.random.default_rng(0)
    payload = components["dataset"].materialize(rng)
    for stage in workload.stage_names[:-1]:
        payload = components[stage].run(payload, rng)
    return workload, payload


@pytest.mark.parametrize("idx", range(5))
def test_autolearn_model_stage_matches_the_reference(autolearn_model_input, idx):
    workload, payload = autolearn_model_input
    params = workload.model_version(idx).params
    X_train, X_test, y_train, _ = train_test_split(
        payload["X"], payload["y"], test_fraction=0.3, seed=int(params["split_seed"])
    )
    args = (int(params["n_estimators"]), int(params["n_thresholds"]))
    change = AdaBoostClassifier(*args).fit(X_train, y_train)
    reference = ReferenceAdaBoostClassifier(*args).fit(X_train, y_train)
    assert len(change.stumps_) > 1
    assert_same_model(change, reference, X_test)
