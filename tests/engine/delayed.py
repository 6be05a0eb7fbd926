"""A cold two-branch history whose merge tree is wide: the thread-model
tests' and the search oracle's toy.

Every library stage sleeps ``params["delay"]`` seconds, so a test can
see which thread a candidate runs on and whether two ever overlap. The
builder is the one the golden window sequences
(``golden_search_window.jsonl``) were recorded from; path keys and
scores depend only on component identifiers and the scripted model
qualities, never on the delays.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.component import DatasetComponent, LibraryComponent
from repro.core.pipeline import PipelineSpec
from repro.core.repository import MLCask
from repro.core.semver import SemVer
from repro.data.table import Table

_RAW = "pmerge/raw_v0"
_CLEAN = "pmerge/clean_v0"
_FEAT = "pmerge/feat_v0"


def _delayed_dataset(n_rows: int) -> DatasetComponent:
    def loader(rng, _n=n_rows):
        base = np.arange(_n, dtype=np.float64)
        return Table({"f0": base, "f1": base * 0.25, "label": (base % 2).astype(np.int64)})

    return DatasetComponent(
        name="pmerge.dataset",
        version=SemVer("master", 0, 0),
        loader=loader,
        output_schema=_RAW,
        content_key="pmerge-day0",
    )


def _clean_fn(table, params, rng):
    time.sleep(params["delay"])
    return table.with_column("f0", table["f0"] + params["idx"] * 0.001)


def _extract_fn(table, params, rng):
    time.sleep(params["delay"])
    return {
        "X": table.numeric_matrix(["f0", "f1"]) + params["idx"] * 0.001,
        "y": table["label"],
    }


def _model_fn(payload, params, rng):
    time.sleep(params["delay"])
    return {"metrics": {"accuracy": params["quality"]}, "params": {}}


def _version(stage: str, idx: int, delay: float, branch: str, quality: float = 0.0):
    fns = {"clean": _clean_fn, "extract": _extract_fn, "model": _model_fn}
    params = {"idx": idx, "delay": delay}
    schemas = {"clean": (_RAW, _CLEAN), "extract": (_CLEAN, _FEAT), "model": (_FEAT, "pmerge/model")}
    if stage == "model":
        params["quality"] = quality
    in_schema, out_schema = schemas[stage]
    return LibraryComponent(
        name=f"pmerge.{stage}",
        version=SemVer(branch, 0, idx),
        fn=fns[stage],
        params=params,
        input_schema=in_schema,
        output_schema=out_schema,
        is_model=stage == "model",
    )


def _quality(c: int, e: int, m: int) -> float:
    """Deterministic model quality per (clean, extract, model) triple —
    injective enough that ties cannot hide a wrong winner."""
    return round(0.5 + 0.04 * m + 0.013 * e + 0.007 * c, 6)


def build_delayed_merge_repo(
    n_clean: int = 2,
    n_extract: int = 3,
    n_model: int = 4,
    stage_seconds: float = 0.03,
    model_seconds: float = 0.06,
    n_rows: int = 64,
    seed: int = 0,
) -> MLCask:
    """A two-branch history whose merge search tree has
    ``n_clean * n_extract * n_model`` leaves, every component carrying a
    simulated compute delay.

    History commits use ``run=False`` — no checkpoints, no history
    scores — so the merge starts cold and every candidate's cost is
    live. Model qualities are a deterministic function of the version
    triple, so every window width must find the same winner.
    """
    repo = MLCask(metric="accuracy", seed=seed)
    spec_components = {
        "dataset": _delayed_dataset(n_rows),
        "clean": _version("clean", 0, stage_seconds, "master"),
        "extract": _version("extract", 0, stage_seconds, "master"),
        "model": _version("model", 0, model_seconds, "master", quality=_quality(0, 0, 0)),
    }
    spec = PipelineSpec.chain("pmerge", ["dataset", "clean", "extract", "model"])
    repo.create_pipeline(spec, spec_components, run=False)
    repo.branch("pmerge", "dev", "master")
    for e in range(1, n_extract):
        repo.commit(
            "pmerge",
            {"extract": _version("extract", e, stage_seconds, "dev")},
            branch="dev",
            run=False,
        )
    for m in range(1, n_model):
        repo.commit(
            "pmerge",
            {"model": _version("model", m, model_seconds, "dev", quality=_quality(0, 0, m))},
            branch="dev",
            run=False,
        )
    for c in range(1, n_clean):
        repo.commit(
            "pmerge",
            {"clean": _version("clean", c, stage_seconds, "master")},
            branch="master",
            run=False,
        )
    return repo
