"""Unit tests for the workload component functions themselves.

The workload tests elsewhere treat components as black boxes (run, check
schema/score); these pin down the concrete behaviour of each pipeline's
stages: shapes, widths, invariants the downstream stages rely on.
"""

import numpy as np
import pytest

from repro.workloads import (
    autolearn_workload,
    dpm_workload,
    readmission_workload,
    sentiment_workload,
)

RNG = np.random.default_rng(0)


def run_stage(workload, stage, payload, idx=0, out_variant=0, in_variant=0):
    component = workload.stage_version(stage, idx, out_variant, in_variant)
    return component.fn(payload, dict(component.params), RNG)


class TestReadmissionStages:
    @pytest.fixture(scope="class")
    def workload(self):
        return readmission_workload(scale=0.3, seed=0)

    @pytest.fixture(scope="class")
    def raw(self, workload):
        return workload.make_dataset().materialize(np.random.default_rng(0))

    def test_clean_fills_all_missing_codes(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw)
        assert all(v is not None for v in cleaned["diagnosis_code"])

    def test_clean_clips_tails(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw, idx=0)  # harshest clip
        assert cleaned["length_of_stay"].max() <= raw["length_of_stay"].max()

    def test_extract_narrow_width(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw)
        out = run_stage(workload, "extract", cleaned, out_variant=0)
        # 7 numeric + 8 diagnosis-prefix one-hot columns
        assert out["X"].shape == (raw.n_rows, 15)

    def test_extract_wide_adds_columns(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw)
        narrow = run_stage(workload, "extract", cleaned, out_variant=0)
        wide = run_stage(workload, "extract", cleaned, out_variant=1)
        # + 5 procedure one-hot + 3 interaction features
        assert wide["X"].shape[1] == narrow["X"].shape[1] + 8

    def test_model_reports_accuracy_and_auc(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw)
        feats = run_stage(workload, "extract", cleaned)
        result = run_stage(workload, "model", feats)
        assert 0.0 <= result["metrics"]["accuracy"] <= 1.0
        assert 0.0 <= result["metrics"]["auc"] <= 1.0


class TestDPMStages:
    @pytest.fixture(scope="class")
    def workload(self):
        return dpm_workload(scale=0.3, seed=0)

    @pytest.fixture(scope="class")
    def raw(self, workload):
        return workload.make_dataset().materialize(np.random.default_rng(0))

    def test_extract_one_sequence_per_patient(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw)
        out = run_stage(workload, "extract", cleaned)
        n_patients = len(np.unique(raw["patient_id"]))
        assert len(out["sequences"]) == n_patients
        assert out["labels"].shape == (n_patients,)

    def test_extract_base_vs_bp_width(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw)
        base = run_stage(workload, "extract", cleaned, out_variant=0)
        with_bp = run_stage(workload, "extract", cleaned, out_variant=1)
        assert base["sequences"][0].shape[1] == 3
        assert with_bp["sequences"][0].shape[1] == 4

    def test_hmm_posterior_feature_width(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw)
        extracted = run_stage(workload, "extract", cleaned)
        out = run_stage(workload, "hmm", extracted, out_variant=0)
        # mean posterior (4) + final posterior (4) + loglik (1)
        assert out["X"].shape[1] == 9

    def test_hmm_schema_variant_widens(self, workload, raw):
        cleaned = run_stage(workload, "clean", raw)
        extracted = run_stage(workload, "extract", cleaned)
        wide = run_stage(workload, "hmm", extracted, out_variant=1)
        assert wide["X"].shape[1] == 11  # 5 states -> 5+5+1


class TestSentimentStages:
    @pytest.fixture(scope="class")
    def workload(self):
        return sentiment_workload(scale=0.3, seed=0)

    @pytest.fixture(scope="class")
    def raw(self, workload):
        return workload.make_dataset().materialize(np.random.default_rng(0))

    def test_corpus_vocab_capped(self, workload, raw):
        out = run_stage(workload, "corpus", raw, out_variant=0)
        assert len(out["vocab_tokens"]) <= 300

    def test_corpus_stopword_removal_shrinks_docs(self, workload, raw):
        base = run_stage(workload, "corpus", raw, idx=0)
        filtered = run_stage(workload, "corpus", raw, idx=3)  # drop_top_k=6
        base_tokens = sum(len(d) for d in base["encoded_docs"])
        filtered_tokens = sum(len(d) for d in filtered["encoded_docs"])
        assert filtered_tokens < base_tokens

    def test_embed_width_follows_variant(self, workload, raw):
        corpus = run_stage(workload, "corpus", raw)
        narrow = run_stage(workload, "embed", corpus, out_variant=0)
        wide = run_stage(workload, "embed", corpus, out_variant=1)
        assert narrow["X"].shape[1] == 24
        assert wide["X"].shape[1] == 32

    def test_prep_quadratic_doubles_width(self, workload, raw):
        corpus = run_stage(workload, "corpus", raw)
        embedded = run_stage(workload, "embed", corpus)
        plain = run_stage(workload, "prep", embedded, out_variant=0)
        quad = run_stage(workload, "prep", embedded, out_variant=1)
        assert quad["X"].shape[1] == 2 * plain["X"].shape[1]


class TestAutolearnStages:
    @pytest.fixture(scope="class")
    def workload(self):
        return autolearn_workload(scale=0.3, seed=0)

    @pytest.fixture(scope="class")
    def raw(self, workload):
        return workload.make_dataset().materialize(np.random.default_rng(0))

    def test_zernike_width_follows_order(self, workload, raw):
        from repro.ml.zernike import zernike_basis_indices

        narrow = run_stage(workload, "zernike", raw, out_variant=0)
        wide = run_stage(workload, "zernike", raw, out_variant=1)
        assert narrow["X"].shape[1] == len(zernike_basis_indices(10))
        assert wide["X"].shape[1] == len(zernike_basis_indices(12))

    def test_featgen_appends_pair_features(self, workload, raw):
        feats = run_stage(workload, "zernike", raw)
        out = run_stage(workload, "featgen", feats)
        assert out["X"].shape[1] == feats["X"].shape[1] + 2 * 40

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_featgen_needs_a_row_per_cv_fold(self, workload, n):
        X = np.random.default_rng(n).standard_normal((n, 6))
        with pytest.raises(ValueError, match=f"at least 3 rows for 3-fold CV, got {n}"):
            run_stage(workload, "featgen", {"X": X, "y": np.zeros(n)})

    @pytest.mark.parametrize("n_candidates", [0, -3])
    def test_featgen_needs_a_candidate(self, workload, raw, n_candidates):
        feats = run_stage(workload, "zernike", raw)
        component = workload.stage_version("featgen", 0)
        params = {**component.params, "n_candidates": n_candidates}
        with pytest.raises(ValueError, match=f"n_candidates must be >= 1, got {n_candidates}"):
            component.fn(feats, params, RNG)

    def test_select_keeps_fixed_width(self, workload, raw):
        feats = run_stage(workload, "zernike", raw)
        generated = run_stage(workload, "featgen", feats)
        selected = run_stage(workload, "select", generated, out_variant=0)
        assert selected["X"].shape[1] == 30

    def test_select_versions_pick_different_features(self, workload, raw):
        feats = run_stage(workload, "zernike", raw)
        generated = run_stage(workload, "featgen", feats)
        a = run_stage(workload, "select", generated, idx=0)
        b = run_stage(workload, "select", generated, idx=6)
        assert not np.array_equal(a["X"], b["X"])

    def test_select_variant_widens_schema(self, workload, raw):
        feats = run_stage(workload, "zernike", raw)
        generated = run_stage(workload, "featgen", feats)
        wide = run_stage(workload, "select", generated, out_variant=1)
        assert wide["X"].shape[1] == 35
