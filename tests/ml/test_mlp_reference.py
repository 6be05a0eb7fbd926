"""The flat-buffer MLP against its frozen per-layer reference, bit for bit.

Training now runs on one parameter buffer and one gradient buffer, with the
L2 term and the momentum step as whole-buffer operations and each epoch's
loss computed after the epoch; every learned parameter, every loss and
every probability must be exactly what the per-layer loop in
``reference_mlp.py`` produces, on drawn inputs, on the inputs the model
stages of the bundled apps really see, and under ``DistributedTrainer``.
No golden digests: BLAS builds differ between machines, a reference run on
the same machine does not.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import oracle_settings
from ml.reference_mlp import ReferenceDistributedTrainer, ReferenceMLPClassifier
from repro.ml import DistributedTrainer, MLPClassifier
from repro.ml.mlp import _layer_views, log_likelihood_rows
from repro.workloads import ALL_WORKLOADS, dpm, readmission, sentiment


def assert_bits_equal(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def assert_same_model(change, reference, X) -> None:
    params, expected = change.get_params(), reference.get_params()
    assert params.keys() == expected.keys()
    for key in expected:
        assert_bits_equal(params[key], expected[key], key)
    assert [type(v) for v in change.loss_history_] == [type(v) for v in reference.loss_history_]
    assert_bits_equal(change.loss_history_, reference.loss_history_, "loss_history_")
    assert_bits_equal(change.predict_proba(X), reference.predict_proba(X), "predict_proba")


@st.composite
def training_inputs(draw):
    """A labelled sample and a batch size it falls below, divides into
    whole batches, or leaves a short last batch of."""
    n_classes = draw(st.integers(2, 4))
    relation = draw(st.sampled_from(["below", "divisible", "not divisible"]))
    if relation == "below":
        batch_size = draw(st.integers(n_classes + 1, 64))
        n = draw(st.integers(n_classes, batch_size - 1))
    elif relation == "divisible":
        batch_size = draw(st.integers(1, 64))
        n = batch_size * draw(st.integers(-(-n_classes // batch_size), 4))
    else:
        batch_size = draw(st.integers(2, 64))
        n = batch_size * draw(st.integers(0, 3)) + draw(st.integers(1, batch_size - 1))
        n += batch_size * -(-max(n_classes - n, 0) // batch_size)  # whole batches, same remainder
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, draw(st.integers(1, 8)))) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    y = rng.permutation(np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, n - n_classes)]))
    return X, y, batch_size


@oracle_settings(150)
@given(
    training_inputs(),
    st.lists(st.integers(1, 64), min_size=1, max_size=3),
    st.integers(0, 6),
    st.sampled_from([0.0, 0.9]),
    st.sampled_from([0.0, 1e-4]),
    st.integers(0, 2**16),
)
def test_mlp_matches_the_per_layer_reference(inputs, hidden_sizes, n_epochs, momentum, l2, seed):
    X, y, batch_size = inputs
    args = dict(
        hidden_sizes=tuple(hidden_sizes), n_epochs=n_epochs, batch_size=batch_size,
        momentum=momentum, l2=l2, seed=seed,
    )
    change = MLPClassifier(**args).fit(X, y)
    reference = ReferenceMLPClassifier(**args).fit(X, y)
    assert_same_model(change, reference, X)


@pytest.mark.parametrize("n_workers", (1, 4))
def test_distributed_trainer_matches_the_reference(n_workers):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 6))
    y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] > 1)
    traces, models = [], []
    for model_cls, trainer_cls in (
        (MLPClassifier, DistributedTrainer),
        (ReferenceMLPClassifier, ReferenceDistributedTrainer),
    ):
        model = model_cls(hidden_sizes=(16, 8), seed=3)
        traces.append(trainer_cls(model, n_workers=n_workers, seed=11).train(
            X, y, n_steps=25, global_batch=50, compute_time_per_batch=0.01
        ))
        models.append(model)
    change, reference = traces
    assert_bits_equal(change.losses, reference.losses, "losses")
    assert_bits_equal(change.smoothed, reference.smoothed, "smoothed")
    assert_bits_equal(change.times, reference.times, "times")
    for i, (a, b) in enumerate(zip(models[0].weights_ + models[0].biases_,
                                   models[1].weights_ + models[1].biases_)):
        assert_bits_equal(a, b, f"parameter array {i}")
    assert_bits_equal(models[0].predict_proba(X), models[1].predict_proba(X), "predict_proba")


@pytest.mark.parametrize("shape", [(32, 15, 96), (32, 96, 2), (1, 7, 3), (5, 1, 4), (5, 4, 1), (17, 64, 64)])
def test_a_product_into_a_view_of_a_flat_buffer_keeps_the_bits(shape):
    n, k, m = shape
    rng = np.random.default_rng(0)
    a, d = rng.standard_normal((n, k)), rng.standard_normal((n, m))
    flat = np.empty(3 + k * m + 5)
    weights, _ = _layer_views(flat[3:], [k, m])
    np.matmul(a.T, d, out=weights[0])
    assert_bits_equal(weights[0], a.T @ d, "matmul into a view")


@pytest.mark.parametrize("n_classes", (2, 3, 4, 9))
def test_per_batch_losses_from_one_epoch_pass_keep_the_bits(n_classes):
    rng = np.random.default_rng(n_classes)
    n, batch_size = 77, 16
    logits = rng.standard_normal((n, n_classes)) * 5
    proba = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    proba[0, 0] = 0.0  # clipped to 1e-12
    targets = np.eye(n_classes)[rng.integers(0, n_classes, n)]
    expected = [
        -np.mean(np.sum(targets[s:s + batch_size] * np.log(np.clip(proba[s:s + batch_size], 1e-12, 1.0)), axis=1))
        for s in range(0, n, batch_size)
    ]
    rows = log_likelihood_rows(proba.copy(), targets)
    actual = [
        -(np.add.reduce(rows[s:s + batch_size]) / rows[s:s + batch_size].shape[0])
        for s in range(0, n, batch_size)
    ]
    assert_bits_equal(actual, expected, "per-batch losses")


def model_stage_payloads(name: str, scale: float) -> tuple:
    """What the model stage of app ``name`` is handed at ``scale``, seed 0,
    per schema variant (the stage just before the model)."""
    workload = ALL_WORKLOADS[name](scale=scale, seed=0)
    rng = np.random.default_rng(0)
    *upstream, schema = workload.stage_names[:-1]
    base = workload.make_dataset().materialize(rng)
    for stage in upstream:
        base = workload.stage_version(stage, 0).run(base, rng)
    payloads = {v: workload.stage_version(schema, 0, v).run(base, rng) for v in (0, 1)}
    return workload, payloads


APPS = {"readmission": (readmission, 0.5), "dpm": (dpm, 0.5), "sa": (sentiment, 0.3)}


@pytest.fixture(scope="module", params=sorted(APPS))
def app_payloads(request):
    module, scale = APPS[request.param]
    return module, *model_stage_payloads(request.param, scale)


@pytest.mark.parametrize("variant", (0, 1))
@pytest.mark.parametrize("idx", range(5))
def test_model_stage_matches_the_reference(app_payloads, variant, idx, monkeypatch):
    module, workload, payloads = app_payloads
    component = workload.stage_version(workload.model_stage, idx, 0, variant)
    change = module._model_fn(payloads[variant], component.params, None)
    monkeypatch.setattr(module, "MLPClassifier", ReferenceMLPClassifier)
    expected = module._model_fn(payloads[variant], component.params, None)
    assert change["metrics"] == expected["metrics"]
    assert change["params"].keys() == expected["params"].keys()
    for key, value in expected["params"].items():
        assert_bits_equal(change["params"][key], value, key)
