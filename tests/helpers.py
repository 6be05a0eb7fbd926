"""Shared test fixtures: a controllable toy pipeline.

The toy pipeline mirrors the paper's running example (dataset -> data
cleansing -> feature extraction -> CNN) but with *scripted* component
behaviour: every model version reports exactly the accuracy it is
configured with, and pre-processing versions perturb their output
deterministically so distinct versions never collide in the
content-addressed checkpoint store. This makes merge-machinery tests
exact: expected winners, candidate counts, and reuse counts are all
computable by hand.

It also holds ``oracle_settings``, the hypothesis settings of the kernel
oracles (the ``tests/*/test_*_reference.py`` differential tests).
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
from hypothesis import settings

import repro.core.persistence as persistence
from repro.core import (
    DatasetComponent,
    LibraryComponent,
    MLCask,
    PipelineSpec,
    SemVer,
)
from repro.data import Table

CLEAN_SCHEMA = "toy/clean_v0"
FEAT_SCHEMA = {0: "toy/feat_v0", 1: "toy/feat_v1"}
RAW_SCHEMA = "toy/raw_v0"


def toy_dataset(day: int = 0, n: int = 40) -> DatasetComponent:
    def loader(rng, _day=day, _n=n):
        base = np.arange(_n, dtype=np.float64)
        return Table({
            "f0": base + _day,
            "f1": base * 0.5,
            "f2": np.sin(base),
            "f3": np.cos(base),
            "label": (base % 2).astype(np.int64),
        })

    return DatasetComponent(
        name="toy.dataset",
        version=SemVer("master", 0, day),
        loader=loader,
        output_schema=RAW_SCHEMA,
        content_key=f"day{day}",
    )


def _clean_fn(table, params, rng):
    return table.with_column("f0", table["f0"] + params["shift"])


def toy_clean(idx: int, branch: str = "master") -> LibraryComponent:
    return LibraryComponent(
        name="toy.clean",
        version=SemVer(branch, 0, idx),
        fn=_clean_fn,
        params={"idx": idx, "shift": 0.001 * idx},
        input_schema=RAW_SCHEMA,
        output_schema=CLEAN_SCHEMA,
    )


def _extract_fn(table, params, rng):
    names = ["f0", "f1", "f2", "f3"][: int(params["width"])]
    return {
        "X": table.numeric_matrix(names) + params["jitter"],
        "y": table["label"],
    }


def toy_extract(idx: int, variant: int = 0, branch: str = "master") -> LibraryComponent:
    return LibraryComponent(
        name="toy.extract",
        version=SemVer(branch, variant, idx),
        fn=_extract_fn,
        params={"idx": idx, "width": 2 + 2 * variant, "jitter": 0.001 * idx},
        input_schema=CLEAN_SCHEMA,
        output_schema=FEAT_SCHEMA[variant],
    )


def _model_fn(payload, params, rng):
    return {
        "metrics": {"accuracy": float(params["quality"])},
        "params": {"weights": np.full(3, params["quality"])},
    }


def toy_model(
    idx: int, quality: float, in_variant: int = 0, branch: str = "master"
) -> LibraryComponent:
    """A model whose reported accuracy is exactly ``quality``."""
    return LibraryComponent(
        name="toy.model",
        version=SemVer(branch, 0, idx),
        fn=_model_fn,
        params={"idx": idx, "quality": quality},
        input_schema=FEAT_SCHEMA[in_variant],
        output_schema="toy/model",
        is_model=True,
    )


TOY_SPEC = PipelineSpec.chain("toy", ["dataset", "clean", "extract", "model"])


def toy_initial_components(model_quality: float = 0.5) -> dict:
    return {
        "dataset": toy_dataset(),
        "clean": toy_clean(0),
        "extract": toy_extract(0),
        "model": toy_model(0, model_quality),
    }


def fresh_toy_repo(model_quality: float = 0.5, metric: str = "accuracy") -> MLCask:
    repo = MLCask(metric=metric, seed=0)
    repo.create_pipeline(TOY_SPEC, toy_initial_components(model_quality))
    return repo


def build_fig3_history(repo: MLCask | None = None, qualities: dict | None = None) -> MLCask:
    """Reproduce the Fig. 3 history exactly.

    Commits (component versions as in the figure):
      master.0.0  clean 0.0, extract 0.0, model 0.0   (common ancestor)
      dev.0.0     model 0.1
      dev.0.1     extract 1.0 (schema bump), model 0.2
      dev.0.2     model 0.3
      master.0.1  clean 0.1, model 0.4

    ``qualities`` maps model idx -> configured accuracy (defaults chosen
    so the optimal merge result is extract 1.0 + model 0.3, matching the
    paper's master.0.2).
    """
    q = {0: 0.50, 1: 0.55, 2: 0.60, 3: 0.80, 4: 0.70}
    if qualities:
        q.update(qualities)
    if repo is None:
        repo = MLCask(metric="accuracy", seed=0)
    repo.create_pipeline(TOY_SPEC, toy_initial_components(q[0]))
    repo.branch("toy", "dev", "master")
    repo.commit("toy", {"model": toy_model(1, q[1])}, branch="dev")
    repo.commit(
        "toy",
        {"extract": toy_extract(0, variant=1), "model": toy_model(2, q[2], in_variant=1)},
        branch="dev",
    )
    repo.commit("toy", {"model": toy_model(3, q[3], in_variant=1)}, branch="dev")
    repo.commit(
        "toy",
        {"clean": toy_clean(1), "model": toy_model(4, q[4])},
        branch="master",
    )
    return repo


def build_workload_repo(workload, commits: int = 1, metric=None, seed: int = 0) -> MLCask:
    """A repository seeded with a real workload history (for hub/remote
    tests that need content-bearing pushes, not scripted components)."""
    repo = MLCask(metric=metric or workload.metric, seed=seed)
    repo.create_pipeline(
        workload.spec, workload.initial_components(), message="initial pipeline"
    )
    for idx in range(1, commits + 1):
        repo.commit(
            workload.name,
            {"model": workload.model_version(idx)},
            message=f"model v{idx}",
        )
    return repo


class Crash(RuntimeError):
    """The writer dies here."""


#: What a step on a chunk store's files is logged as, by the file's name.
_CHUNK_STORE_FILE = re.compile(r"(segment|index)\.\d+(\.tmp)?")


def _chunk_store_file(path) -> str | None:
    """``"segment"`` or ``"index"`` when ``path`` is one of a
    ``FileChunkStore``'s files, else None."""
    match = _CHUNK_STORE_FILE.fullmatch(os.path.basename(os.fspath(path)))
    return match[1] if match else None


def die_before_write(monkeypatch, nth: int) -> list:
    """Let ``nth`` writes through, then die before the next one; returns
    the list the writes are logged to.

    What counts as a write: a repository directory's metadata writes
    (``append_journal``, ``write_json_atomic``) and every step a
    ``FileChunkStore`` takes on its files — an append to the segment
    (``"segment"``) or to the index (``"index"``), an ``fdatasync`` of
    either (``"flush"``), the rename that publishes a compacted
    generation (``"publish"``) and each removal of an old one
    (``"unlink"``). Chunk-store steps are told apart by the name of the
    file they touch; other users of the same ``os`` calls pass through
    unlogged."""
    log: list = []

    def guarded(original, name_of):
        def wrapper(*args, **kwargs):
            name = name_of(*args, **kwargs)
            if name is not None:
                if len(log) >= nth:
                    raise Crash(f"before write {nth} ({name})")
                log.append(name)
            return original(*args, **kwargs)

        return wrapper

    def of_descriptor(fd, *_):
        return _chunk_store_file(os.readlink(f"/proc/self/fd/{fd}"))

    for name in ("append_journal", "write_json_atomic"):
        monkeypatch.setattr(
            persistence,
            name,
            guarded(getattr(persistence, name), lambda *a, _name=name, **k: _name),
        )
    monkeypatch.setattr(os, "write", guarded(os.write, of_descriptor))
    monkeypatch.setattr(
        os,
        "fdatasync",
        guarded(os.fdatasync, lambda fd: of_descriptor(fd) and "flush"),
    )
    monkeypatch.setattr(
        os,
        "replace",
        guarded(os.replace, lambda src, dst: _chunk_store_file(dst) and "publish"),
    )
    monkeypatch.setattr(
        os,
        "unlink",
        guarded(os.unlink, lambda path, **_: _chunk_store_file(path) and "unlink"),
    )
    return log


def bytes_under(root) -> int:
    """Bytes of every file under ``root``, the way the budget's
    books-match-disk check counts them."""
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(root)
        for name in names
    )


def committed_rows(directory) -> dict[str, list]:
    """What the header of a repository directory commits, read without
    the repository's code: the rows in the first ``journals[name]``
    bytes of each generation-``g`` journal."""
    with open(os.path.join(directory, "state.json")) as fh:
        header = json.load(fh)
    rows = {}
    for name, length in header["journals"].items():
        data = b""
        if length:
            path = os.path.join(directory, f"{name}.{header['generation']}.jsonl")
            with open(path, "rb") as fh:
                data = fh.read()[:length]
            assert len(data) == length
        rows[name] = [json.loads(line) for line in data.splitlines()]
    return rows


def oracle_settings(max_examples: int) -> settings:
    """Hypothesis settings of a kernel oracle: ``max_examples`` draws in
    tier-1, the ``kernel-oracles`` profile's (``conftest.py``) when pytest
    runs with ``--hypothesis-profile kernel-oracles``."""
    if settings.get_current_profile_name() == "kernel-oracles":
        return settings(deadline=None)
    return settings(max_examples=max_examples, deadline=None)
