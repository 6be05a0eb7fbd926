"""The batched HMM against its frozen per-sequence reference, bit for bit.

One E-step now runs over every sequence at once, grouped by length; every
learned parameter, every log-likelihood and every posterior must be
exactly what the sequence-at-a-time loop in ``reference_hmm.py`` produces,
on drawn inputs and on the input the DPM hmm stage really sees. No golden
digests: BLAS builds differ between machines, a reference run on the same
machine does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ml.reference_hmm import ReferenceGaussianHMM
from repro.ml import GaussianHMM
from repro.workloads import ALL_WORKLOADS
from repro.workloads.dpm import _hmm_fn


def assert_bits_equal(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


@st.composite
def hmm_inputs(draw):
    """Sequences of mixed lengths (one of them held by a single sequence)
    or all of one length, drawn around a few well-spread cluster means."""
    n_features = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=10))
    if draw(st.sampled_from(["one length", "mixed"])) == "one length":
        lengths = [lengths[0]] * len(lengths)
    else:
        unused = sorted(set(range(1, 41)) - set(lengths))
        lengths.insert(draw(st.integers(0, len(lengths))), draw(st.sampled_from(unused)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.normal(0.0, 3.0, (draw(st.integers(1, 4)), n_features))
    sequences = []
    for length in lengths:
        path = rng.integers(0, len(centres), length)
        sequences.append(centres[path] + rng.standard_normal((length, n_features)))
    return sequences


@settings(max_examples=40, deadline=None)
@given(
    hmm_inputs(),
    st.integers(2, 6),
    st.integers(1, 30),
    st.sampled_from([0.0, 1e-4]),
    st.integers(0, 2**16),
)
def test_gaussian_hmm_matches_the_per_sequence_reference(sequences, n_states, n_iterations, tol, seed):
    args = dict(n_states=n_states, n_iterations=n_iterations, tol=tol, seed=seed)
    change = GaussianHMM(**args).fit(sequences)
    reference = ReferenceGaussianHMM(**args).fit(sequences)
    params, expected = change.get_params(), reference.get_params()
    assert params.keys() == expected.keys()
    for key in expected:
        assert_bits_equal(params[key], expected[key], key)
    assert_bits_equal(change.log_likelihood_history_, reference.log_likelihood_history_, "history")
    for index, (seq, (gamma, ll)) in enumerate(zip(sequences, change.posteriors(sequences))):
        assert_bits_equal(gamma, reference.posterior(seq), f"posteriors gamma {index}")
        assert_bits_equal(ll, reference.log_likelihood(seq), f"posteriors ll {index}")
        assert_bits_equal(change.posterior(seq), reference.posterior(seq), f"posterior {index}")
        assert change.log_likelihood(seq) == reference.log_likelihood(seq), f"ll {index}"


def test_stacked_unit_dimension_products_run_one_gemv_per_item():
    rng = np.random.default_rng(0)
    A, V = rng.random((5, 5)), rng.random((55, 5))
    assert (V[:, None, :] @ A)[:, 0].tobytes() == np.array([v @ A for v in V]).tobytes()
    assert (A @ V[:, :, None])[:, :, 0].tobytes() == np.array([A @ v for v in V]).tobytes()


def reference_hmm_fn(payload: dict, params: dict) -> dict:
    """The DPM hmm stage as it stood at ``00f5503``: two forward passes
    per patient, on the reference model."""
    sequences = payload["sequences"]
    hmm = ReferenceGaussianHMM(
        n_states=int(params["n_states"]),
        n_iterations=int(params["n_iterations"]),
        seed=int(params["hmm_seed"]),
    ).fit(sequences)
    rows = []
    for seq in sequences:
        gamma = hmm.posterior(seq)
        rows.append(
            np.concatenate([
                gamma.mean(axis=0),
                gamma[-1],
                [hmm.log_likelihood(seq) / max(len(seq), 1)],
            ])
        )
    return {"X": np.vstack(rows), "y": payload["labels"]}


@pytest.fixture(scope="module")
def dpm_extract_outputs():
    """What the DPM hmm stage is handed at scale 0.5, seed 0, per schema
    variant of the extract stage."""
    workload = ALL_WORKLOADS["dpm"](scale=0.5, seed=0)
    rng = np.random.default_rng(0)
    cleaned = workload.stage_version("clean", 0).run(workload.make_dataset().materialize(rng), rng)
    outputs = {
        variant: workload.stage_version("extract", 0, variant).run(cleaned, rng)
        for variant in (0, 1)
    }
    return workload, outputs


@pytest.mark.parametrize("variant", (0, 1))
@pytest.mark.parametrize("idx", range(5))
def test_dpm_hmm_stage_matches_the_reference(dpm_extract_outputs, variant, idx):
    workload, outputs = dpm_extract_outputs
    payload = outputs[variant]
    params = workload.stage_version("hmm", idx, variant, variant).params
    change = _hmm_fn(payload, params, None)
    expected = reference_hmm_fn(payload, params)
    assert_bits_equal(change["X"], expected["X"], "X")
    assert_bits_equal(change["y"], expected["y"], "y")
