"""Model tests: linear, MLP, boosting — learning and API contracts."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml import (
    AdaBoostClassifier,
    BinaryLogisticRegression,
    LogisticRegression,
    MLPClassifier,
    RidgeRegression,
    accuracy,
)
from repro.ml.boosting import DecisionStump
from repro.data.synthetic import make_digits


def linearly_separable(n=300, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    y = (X @ w > 0).astype(int)
    return X, y


def xor_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestLogisticRegression:
    def test_separable_high_accuracy(self):
        X, y = linearly_separable()
        model = LogisticRegression(n_iterations=400).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95

    def test_proba_rows_sum_to_one(self):
        X, y = linearly_separable(100)
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_multiclass(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.standard_normal((50, 2)) + c * 4 for c in range(3)])
        y = np.repeat([0, 1, 2], 50)
        model = LogisticRegression(n_iterations=300).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95
        assert model.predict_proba(X).shape == (150, 3)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(np.ones((2, 2)))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.ones((5, 2)), np.zeros(5))

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            LogisticRegression(learning_rate=-1)

    def test_deterministic_given_seed(self):
        X, y = linearly_separable(100)
        a = LogisticRegression(seed=7).fit(X, y).get_params()["weights"]
        b = LogisticRegression(seed=7).fit(X, y).get_params()["weights"]
        assert np.array_equal(a, b)

    def test_classes_preserved(self):
        X, _ = linearly_separable(50)
        y = np.where(np.arange(50) % 2 == 0, 3, 9)
        model = LogisticRegression().fit(X, y)
        assert set(model.predict(X)) <= {3, 9}


class TestBinaryLogisticRegression:
    def test_learns(self):
        X, y = linearly_separable(seed=2)
        model = BinaryLogisticRegression(n_iterations=400).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95

    def test_requires_two_classes(self):
        X = np.ones((6, 2))
        with pytest.raises(ValueError):
            BinaryLogisticRegression().fit(X, np.array([0, 1, 2, 0, 1, 2]))

    def test_proba_columns(self):
        X, y = linearly_separable(80)
        proba = BinaryLogisticRegression().fit(X, y).predict_proba(X)
        assert proba.shape == (80, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestRidgeRegression:
    def test_recovers_linear_function(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 3))
        true_w = np.array([1.5, -2.0, 0.5])
        y = X @ true_w + 3.0
        model = RidgeRegression(alpha=1e-6).fit(X, y)
        assert np.allclose(model.weights_, true_w, atol=1e-3)
        assert abs(model.bias_ - 3.0) < 1e-3

    def test_regularization_shrinks_weights(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 4))
        y = X @ np.ones(4)
        small = RidgeRegression(alpha=0.01).fit(X, y)
        large = RidgeRegression(alpha=100.0).fit(X, y)
        assert np.linalg.norm(large.weights_) < np.linalg.norm(small.weights_)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeRegression(alpha=-1)


class TestMLP:
    def test_solves_xor(self):
        X, y = xor_data()
        model = MLPClassifier(hidden_sizes=(16,), n_epochs=80, seed=1).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.9

    def test_loss_decreases(self):
        X, y = linearly_separable(200)
        model = MLPClassifier(hidden_sizes=(8,), n_epochs=30, seed=0).fit(X, y)
        assert model.loss_history_[-1] < model.loss_history_[0]

    def test_deterministic(self):
        X, y = linearly_separable(100)
        a = MLPClassifier(seed=5, n_epochs=5).fit(X, y).predict_proba(X)
        b = MLPClassifier(seed=5, n_epochs=5).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)

    def test_get_params_layer_shapes(self):
        X, y = linearly_separable(50, d=4)
        model = MLPClassifier(hidden_sizes=(8, 4), n_epochs=2).fit(X, y)
        params = model.get_params()
        assert params["W0"].shape == (4, 8)
        assert params["W1"].shape == (8, 4)
        assert params["W2"].shape == (4, 2)

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_sizes=())

    def test_multiclass(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.standard_normal((40, 2)) + c * 3 for c in range(4)])
        y = np.repeat(np.arange(4), 40)
        model = MLPClassifier(hidden_sizes=(16,), n_epochs=40, seed=2).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.9

    @pytest.mark.parametrize("n_labels", [49, 51])
    def test_label_count_must_match_the_rows(self, n_labels):
        X, y = linearly_separable(50)
        y = np.resize(y, n_labels)
        with pytest.raises(ValueError, match=f"X has 50 rows but y has {n_labels} labels"):
            MLPClassifier(n_epochs=1).fit(X, y)

    @pytest.mark.parametrize("n_epochs", [0, 1])
    def test_batch_size_must_be_positive(self, n_epochs):
        X, y = linearly_separable(50)
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            MLPClassifier(batch_size=0, n_epochs=n_epochs).fit(X, y)

    @pytest.mark.parametrize("width", [4, 6])
    def test_feature_width_must_match_the_fitted_one(self, width):
        X, y = linearly_separable(50, d=5)
        model = MLPClassifier(n_epochs=1).fit(X, y)
        wrong = np.ones((3, width))
        for method in (model.predict, model.predict_proba):
            with pytest.raises(ValueError, match=f"X has {width} features but the model was fitted on 5"):
                method(wrong)

    def test_params_are_views_of_one_buffer(self):
        X, y = linearly_separable(50, d=4)
        model = MLPClassifier(hidden_sizes=(8, 4), n_epochs=2).fit(X, y)
        arrays = (*model.weights_, *model.biases_)
        assert all(array.flags.c_contiguous for array in arrays)
        assert len({id(array.base) for array in arrays}) == 1
        assert arrays[0].base.size == sum(array.size for array in arrays)


class TestDecisionStump:
    def test_splits_trivial_data(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        weights = np.full(4, 0.25)
        stump = DecisionStump().fit(X, y, weights, 2)
        assert accuracy(y, stump.predict_idx(X)) == 1.0

    def test_respects_weights(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 1, 1])
        # huge weight on sample 0 forces a split separating it
        weights = np.array([0.97, 0.01, 0.01, 0.01])
        stump = DecisionStump().fit(X, y, weights, 2)
        assert stump.predict_idx(X[[0]])[0] == 0

    def test_no_valid_split_predicts_the_weighted_majority(self):
        # Constant features admit no split. Class 1 is the minority by
        # count and the majority by weight.
        X = np.zeros((10, 3))
        y = np.array([1] * 3 + [0] * 7)
        weights = np.where(y == 1, 0.2, 0.4 / 7)
        stump = DecisionStump().fit(X, y, weights, 2)
        assert stump.feature_ == -1
        assert stump.predict_idx(X).tolist() == [1] * 10


class TestAdaBoost:
    def test_beats_single_stump(self):
        # 1-D staircase: a union of intervals — exactly what boosting over
        # stumps can represent and a single stump cannot.
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (500, 1))
        y = (np.floor(X[:, 0] * 6) % 2).astype(int)
        weights = np.full(len(y), 1.0 / len(y))
        stump = DecisionStump(n_thresholds=20).fit(X, y, weights, 2)
        stump_acc = accuracy(y, stump.predict_idx(X))
        boosted = AdaBoostClassifier(n_estimators=60, n_thresholds=20).fit(X, y)
        assert accuracy(y, boosted.predict(X)) > stump_acc + 0.1

    def test_multiclass_digits(self):
        from repro.ml import ZernikeExtractor

        images, labels = make_digits(400, seed=8)
        feats = ZernikeExtractor(max_order=8).transform(images)
        model = AdaBoostClassifier(n_estimators=60).fit(feats[:300], labels[:300])
        acc = accuracy(labels[300:], model.predict(feats[300:]))
        assert acc > 0.35  # 10 classes; chance is 0.10

    def test_proba_normalized(self):
        X, y = xor_data(100, seed=9)
        proba = AdaBoostClassifier(n_estimators=10).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_rejects_zero_estimators(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=0)

    def test_rejects_zero_thresholds(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_thresholds=0)

    def test_no_valid_split_predicts_the_majority_class(self):
        X = np.zeros((10, 3))
        y = np.array([0] * 3 + [1] * 7)
        model = AdaBoostClassifier(5).fit(X, y)
        assert model.predict(X).tolist() == [1] * 10

    @pytest.mark.parametrize("width", [4, 6])
    def test_feature_width_must_match_the_fitted_one(self, width):
        X, y = linearly_separable(50, d=5)
        model = AdaBoostClassifier(n_estimators=5).fit(X, y)
        wrong = np.ones((3, width))
        for method in (model.predict, model.predict_proba):
            with pytest.raises(ValueError, match=f"X has {width} features but the model was fitted on 5"):
                method(wrong)

    @pytest.mark.parametrize("n_labels", [49, 51])
    def test_label_count_must_match_the_rows(self, n_labels):
        X, y = linearly_separable(50)
        with pytest.raises(ValueError, match=f"X has 50 rows but y has {n_labels} labels"):
            AdaBoostClassifier(n_estimators=5).fit(X, np.resize(y, n_labels))

    def test_rejects_zero_feature_columns(self):
        with pytest.raises(ValueError, match="X has 10 rows but 0 feature columns"):
            AdaBoostClassifier(n_estimators=5).fit(np.zeros((10, 0)), np.arange(10) % 2)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="X has 0 rows"):
            AdaBoostClassifier(n_estimators=5).fit(np.zeros((0, 3)), np.zeros(0))

    def test_get_params_lengths_consistent(self):
        X, y = xor_data(100, seed=10)
        model = AdaBoostClassifier(n_estimators=15).fit(X, y)
        params = model.get_params()
        n = len(params["alphas"])
        assert len(params["features"]) == n
        assert len(params["thresholds"]) == n
