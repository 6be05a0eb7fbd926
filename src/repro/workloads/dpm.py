"""Disease Progression Modeling pipeline (paper section VII-A).

Stages: ``dataset -> clean -> extract -> hmm -> model``.

1. *clean* — clip laboratory outliers;
2. *extract* — per-patient visit sequences of lab features (schema variant
   1 adds systolic blood pressure, widening the sequence features);
3. *hmm* — a Gaussian HMM fit over all sequences "so that they become
   unbiased": each patient is summarized by posterior-stage statistics,
   all patients in one batched E-step. It is the pipeline's most
   expensive stage (about 11 ms a run against the model stage's 2-5 ms at
   scale 0.5, on a 2-core Xeon), so DPM's cost stays on pre-processing, as
   the paper observes ("HMM processing is time consuming"); schema
   variant 1 uses 5 hidden states, widening the posterior features;
4. *model* — a small MLP predicting stage progression.
"""

from __future__ import annotations

import numpy as np

from ..core.component import DatasetComponent
from ..core.semver import SemVer
from ..data.synthetic.dpm import make_dpm
from ..data.table import Table
from ..ml.hmm import GaussianHMM
from ..ml.metrics import accuracy, roc_auc
from ..ml.mlp import MLPClassifier
from ..ml.utils import train_test_split
from .base import Workload

_BASE_FEATURES = ("egfr", "creatinine", "uacr")


def _clean_fn(table: Table, params: dict, rng) -> Table:
    out = table
    lo_q, hi_q = float(params["lo_quantile"]), float(params["hi_quantile"])
    for column in ("egfr", "creatinine", "uacr", "sbp"):
        values = out[column].astype(np.float64)
        lo, hi = np.quantile(values, [lo_q, hi_q])
        out = out.with_column(column, values.clip(lo, hi))
    return out


def _extract_fn(table: Table, params: dict, rng) -> dict:
    features = list(_BASE_FEATURES)
    if params["include_bp"]:
        features.append("sbp")
    matrix = table.numeric_matrix(features)
    if params["log_uacr"]:
        uacr_col = features.index("uacr")
        matrix[:, uacr_col] = np.log1p(matrix[:, uacr_col])
    # column-standardize so HMM emissions are comparable across features
    epsilon = float(params.get("std_epsilon", 1e-9))
    matrix = (matrix - matrix.mean(axis=0)) / (matrix.std(axis=0) + epsilon)

    patient_ids = table["patient_id"].astype(np.int64)
    labels_all = table["progressed"].astype(np.int64)
    sequences: list[np.ndarray] = []
    labels: list[int] = []
    for pid in np.unique(patient_ids):
        mask = patient_ids == pid
        sequences.append(matrix[mask])
        labels.append(int(labels_all[mask][0]))
    return {
        "sequences": sequences,
        "labels": np.array(labels, dtype=np.int64),
        "n_features": len(features),
    }


def _hmm_fn(payload: dict, params: dict, rng) -> dict:
    sequences = payload["sequences"]
    hmm = GaussianHMM(
        n_states=int(params["n_states"]),
        n_iterations=int(params["n_iterations"]),
        seed=int(params["hmm_seed"]),
    ).fit(sequences)
    rows = []
    for gamma, log_likelihood in hmm.posteriors(sequences):
        rows.append(
            np.concatenate([
                gamma.mean(axis=0),          # time-averaged stage posterior
                gamma[-1],                   # final-visit stage posterior
                [log_likelihood / len(gamma)],
            ])
        )
    return {"X": np.vstack(rows), "y": payload["labels"]}


def _model_fn(payload: dict, params: dict, rng) -> dict:
    X, y = payload["X"], payload["y"]
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, test_fraction=0.3, seed=int(params["split_seed"])
    )
    model = MLPClassifier(
        hidden_sizes=tuple(params["hidden_sizes"]),
        n_epochs=int(params["n_epochs"]),
        seed=int(params["model_seed"]),
    ).fit(X_train, y_train)
    predictions = model.predict(X_test)
    proba = model.predict_proba(X_test)[:, 1]
    return {
        "metrics": {
            "accuracy": accuracy(y_test, predictions),
            "auc": roc_auc(y_test, proba),
        },
        "params": model.get_params(),
    }


class DPMWorkload(Workload):
    """Pre-processing-dominated CKD progression pipeline."""

    stage_names = ("clean", "extract", "hmm", "model")
    schema_stage_name = "hmm"
    clean_stage_name = "clean"
    metric = "accuracy"

    @property
    def name(self) -> str:
        return "dpm"

    def make_dataset(self, day: int = 0) -> DatasetComponent:
        n = self.scaled(110)
        seed = self.seed

        def loader(rng, _n=n, _seed=seed, _day=day):
            return make_dpm(n_patients=_n, n_visits=12, seed=_seed, day=_day)

        return DatasetComponent(
            name=f"{self.name}.dataset",
            version=SemVer("master", 0, day),
            loader=loader,
            output_schema=self.schema_tag("dataset", 0),
            content_key=f"day{day}",
            description="synthetic longitudinal CKD labs",
        )

    def _build(self, stage, idx, out_variant, in_variant):
        # Quality trends upward with the version index: gentler clipping,
        # more EM iterations, larger models — history scores stay
        # informative for the prioritized search.
        if stage == "clean":
            # hyperbolic ladder: strictly varying at every idx, converging
            # toward keep-everything (no two versions byte-alias)
            params = {
                "idx": idx,
                "lo_quantile": 0.02 / (1.0 + idx),
                "hi_quantile": 1.0 - 0.02 / (1.0 + idx),
            }
            return _clean_fn, params, False
        if stage == "extract":
            params = {
                "idx": idx,
                "include_bp": out_variant >= 1,
                "log_uacr": idx % 2 == 0,
                # tiny per-version standardization epsilon keeps outputs
                # of same-parity versions from byte-aliasing
                "std_epsilon": 1e-9 * (1 + idx),
            }
            return _extract_fn, params, False
        if stage == "hmm":
            params = {
                "idx": idx,
                "n_states": 4 + out_variant,  # schema variant widens posteriors
                "n_iterations": 16 + 5 * min(idx, 4),
                # per-version init jitter: EM may converge before the
                # iteration cap, so the cap alone cannot distinguish
                # version outputs — the jitter guarantees distinct bytes
                "hmm_seed": self.seed + idx,
            }
            return _hmm_fn, params, False
        if stage == "model":
            # Quality ladder peaking at idx 3 (see readmission.py).
            hidden_ladder = [[16], [24], [32], [48], [40]]
            epoch_ladder = [16, 20, 24, 32, 28]
            step = min(idx, 4)
            params = {
                "idx": idx,
                "hidden_sizes": hidden_ladder[step],
                "n_epochs": epoch_ladder[step] + 2 * max(idx - 4, 0),
                "split_seed": 11,
                "model_seed": self.seed,
            }
            return _model_fn, params, True
        raise ValueError(f"unknown stage {stage!r}")
