"""Gaussian HMM tests: EM behaviour and inference correctness."""

import numpy as np
import pytest

from repro.errors import NotFittedError
from repro.ml import GaussianHMM


def two_state_sequences(n_seqs=30, length=40, seed=0):
    """Well-separated two-state chain with sticky transitions."""
    rng = np.random.default_rng(seed)
    transitions = np.array([[0.9, 0.1], [0.15, 0.85]])
    means = np.array([[-3.0], [3.0]])
    sequences, states = [], []
    for _ in range(n_seqs):
        s = rng.integers(0, 2)
        seq, path = [], []
        for _ in range(length):
            path.append(s)
            seq.append(means[s, 0] + rng.standard_normal() * 0.5)
            s = rng.choice(2, p=transitions[s])
        sequences.append(np.array(seq).reshape(-1, 1))
        states.append(np.array(path))
    return sequences, states, transitions


class TestFitting:
    def test_loglik_monotone_nondecreasing(self):
        sequences, _, _ = two_state_sequences()
        hmm = GaussianHMM(n_states=2, n_iterations=12, seed=0).fit(sequences)
        history = hmm.log_likelihood_history_
        assert all(b >= a - 1e-6 for a, b in zip(history, history[1:]))

    def test_recovers_means(self):
        sequences, _, _ = two_state_sequences()
        hmm = GaussianHMM(n_states=2, n_iterations=20, seed=0).fit(sequences)
        means = sorted(hmm.means_.ravel())
        assert abs(means[0] - (-3.0)) < 0.4
        assert abs(means[1] - 3.0) < 0.4

    def test_recovers_sticky_transitions(self):
        sequences, _, true_transitions = two_state_sequences(n_seqs=50)
        hmm = GaussianHMM(n_states=2, n_iterations=25, seed=0).fit(sequences)
        # identify state order by mean, then check self-transition mass
        order = np.argsort(hmm.means_.ravel())
        learned = hmm.transitions_[np.ix_(order, order)]
        assert learned[0, 0] > 0.75
        assert learned[1, 1] > 0.7

    def test_transition_rows_stochastic(self):
        sequences, _, _ = two_state_sequences(10)
        hmm = GaussianHMM(n_states=2, n_iterations=5, seed=1).fit(sequences)
        assert np.allclose(hmm.transitions_.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(hmm.initial_.sum(), 1.0, atol=1e-9)

    def test_requires_sequences(self):
        with pytest.raises(ValueError):
            GaussianHMM().fit([])

    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            GaussianHMM(n_states=1)


class TestInference:
    def test_posterior_rows_sum_to_one(self):
        sequences, _, _ = two_state_sequences(10)
        hmm = GaussianHMM(n_states=2, n_iterations=10, seed=0).fit(sequences)
        gamma = hmm.posterior(sequences[0])
        assert gamma.shape == (len(sequences[0]), 2)
        assert np.allclose(gamma.sum(axis=1), 1.0)

    def test_viterbi_matches_truth_on_separated_data(self):
        sequences, states, _ = two_state_sequences(5, seed=3)
        hmm = GaussianHMM(n_states=2, n_iterations=20, seed=0).fit(sequences)
        order = np.argsort(hmm.means_.ravel())  # map learned -> true labels
        remap = np.empty(2, dtype=int)
        remap[order] = [0, 1]
        path = remap[hmm.viterbi(sequences[0])]
        assert np.mean(path == states[0]) > 0.9

    def test_loglik_higher_for_indistribution(self):
        sequences, _, _ = two_state_sequences(20, seed=5)
        hmm = GaussianHMM(n_states=2, n_iterations=15, seed=0).fit(sequences)
        in_dist = hmm.log_likelihood(sequences[0])
        rng = np.random.default_rng(9)
        out_dist = hmm.log_likelihood(rng.uniform(50, 60, (40, 1)))
        assert in_dist > out_dist

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            GaussianHMM().posterior(np.zeros((3, 1)))

    def test_params_serializable(self):
        from repro.data.serialize import payload_from_bytes, payload_to_bytes

        sequences, _, _ = two_state_sequences(5)
        hmm = GaussianHMM(n_states=2, n_iterations=3, seed=0).fit(sequences)
        params = payload_from_bytes(payload_to_bytes(hmm.get_params()))
        assert np.allclose(params["transitions"], hmm.transitions_)


class TestRefusals:
    @pytest.fixture(scope="class")
    def hmm(self):
        rng = np.random.default_rng(0)
        return GaussianHMM(n_states=2, n_iterations=3).fit([rng.standard_normal((8, 4))] * 3)

    @pytest.mark.parametrize("method", ["posterior", "log_likelihood", "viterbi"])
    def test_width_mismatch_names_both_widths(self, hmm, method):
        with pytest.raises(ValueError, match="sequence 0 has 1 features, the model was fitted on 4"):
            getattr(hmm, method)(np.zeros((6, 1)))

    def test_posteriors_width_mismatch_names_the_sequence(self, hmm):
        with pytest.raises(ValueError, match="sequence 1 has 3 features, the model was fitted on 4"):
            hmm.posteriors([np.zeros((6, 4)), np.zeros((6, 3))])

    def test_fit_refuses_mixed_widths(self):
        with pytest.raises(ValueError, match="sequence 2 has 1 features, sequence 0 has 4"):
            GaussianHMM().fit([np.zeros((5, 4)), np.ones((3, 4)), np.zeros((5, 1))])

    def test_fit_refuses_an_empty_sequence(self):
        with pytest.raises(ValueError, match="sequence 1 is empty"):
            GaussianHMM().fit([np.ones((5, 2)), np.zeros((0, 2))])

    def test_posterior_refuses_an_empty_sequence(self, hmm):
        with pytest.raises(ValueError, match="sequence 0 is empty"):
            hmm.posterior(np.zeros((0, 4)))


class TestOnDPMData:
    def test_recovers_progression_structure(self):
        """On the synthetic CKD data, posterior stages must correlate with
        the ground-truth stages (the 'unbiasing' the DPM pipeline needs)."""
        from repro.data.synthetic import make_dpm

        table = make_dpm(60, 10, seed=1)
        pid = table["patient_id"]
        feats = table.numeric_matrix(["egfr", "creatinine", "uacr"])
        feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
        sequences = [feats[pid == p] for p in np.unique(pid)]
        hmm = GaussianHMM(n_states=4, n_iterations=20, seed=0).fit(sequences)
        # decode every patient; check monotone relation between decoded
        # state (ordered by eGFR mean) and true stage on average
        true_stage = table["true_stage"]
        decoded = np.concatenate([hmm.viterbi(s) for s in sequences])
        egfr_col = 0
        order = np.argsort(-hmm.means_[:, egfr_col])  # healthy first
        remap = np.empty(4, dtype=int)
        remap[order] = np.arange(4)
        corr = np.corrcoef(remap[decoded], true_stage)[0, 1]
        assert corr > 0.6
