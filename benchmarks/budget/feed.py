"""The synthetic *feed* pipeline: the hub workloads' input.

``dataset -> clean -> model`` built from the public component classes.
The dataset is a float64 table of ``rows`` x ``COLUMNS`` (3.2 MB at the
default size); dataset version ``k`` rewrites a seeded 10 % row slab of
version ``k-1`` and appends 2 % of the base row count, so consecutive versions share
most of their chunks — the daily-feed shape the paper's dedup argument
rests on. ``clean`` and ``model`` are parameter-version families whose
compute is milliseconds: what a hub workload times is MLCask's
substrate (serialize, chunk, hash, checkpoint, ledger, wire, disk), not
numpy training.

Everything is a pure function of ``(seed, stream, rows)``: two
:class:`Feed` objects built from the same arguments hand out
byte-identical tables and fingerprint-identical components, which is
what lets two replicas (and a later same-seed run) agree on every
digest. ``stream`` gives each hub repository of one run its own content,
so the hub's cross-repository chunk dedup never hides a write.
"""

from __future__ import annotations

import numpy as np

from repro import (
    ComponentRegistry,
    DatasetComponent,
    LibraryComponent,
    MLCask,
    PipelineSpec,
    SemVer,
    Table,
)

PIPELINE = "feed"
COLUMNS = 8  # f0..f6 features + the label column
DEFAULT_ROWS = 50_000
REWRITE_SHARE = 0.10
APPEND_SHARE = 0.02

_RAW = "feed/raw_v0"
_CLEAN = "feed/clean_v0"


def _features(table: Table) -> list[str]:
    return [name for name in table.column_names if name != "label"]


def _clean_fn(table, params, rng):
    clip = params["clip"]
    return Table(
        {
            name: np.clip(table[name], -clip, clip) if name != "label" else table[name]
            for name in table.column_names
        }
    )


def _model_fn(table, params, rng):
    # Ridge fit on a fixed-size head of the table: a real metric that
    # depends on data and parameters, at a cost of about a millisecond.
    head = slice(0, 4096)
    x = np.column_stack([table[name][head] for name in _features(table)])
    y = table["label"][head]
    gram = x.T @ x + params["l2"] * np.eye(x.shape[1])
    weights = np.linalg.solve(gram, x.T @ y)
    accuracy = float(np.mean((x @ weights > 0) == (y > 0)))
    return {"metrics": {"accuracy": accuracy}, "weights": weights}


class Feed:
    """One seeded feed family: tables and component versions on demand."""

    spec = PipelineSpec.chain(PIPELINE, ["dataset", "clean", "model"])

    def __init__(self, seed: int, stream: int = 0, rows: int = DEFAULT_ROWS):
        self.seed = seed
        self.stream = stream
        self.rows = rows
        # Only the newest table is kept whole; older versions are replayed
        # from the base and the per-version deltas (12 % of a table each),
        # so a 100-version history costs tens of MB, not hundreds.
        self._base = self._fresh(np.random.default_rng([seed, stream, 0]), rows)
        self._deltas: list[tuple[int, np.ndarray, np.ndarray]] = []
        self._latest = (0, self._base)

    @staticmethod
    def _fresh(rng, n: int) -> np.ndarray:
        """``n`` new rows; the label is a noisy linear function of the
        features, so the model stage has something to fit."""
        block = rng.standard_normal((n, COLUMNS))
        block[:, -1] += block[:, :-1] @ np.arange(1.0, COLUMNS)
        return block

    # ------------------------------------------------------------- tables
    def _delta(self, version: int) -> tuple[int, np.ndarray, np.ndarray]:
        """What version ``version`` changes in version ``version - 1``."""
        while len(self._deltas) < version:
            k = len(self._deltas) + 1
            rng = np.random.default_rng([self.seed, self.stream, k])
            n = self.rows + (k - 1) * int(self.rows * APPEND_SHARE)
            slab = int(n * REWRITE_SHARE)
            start = int(rng.integers(0, n - slab))
            self._deltas.append(
                (
                    start,
                    self._fresh(rng, slab),
                    self._fresh(rng, int(self.rows * APPEND_SHARE)),
                )
            )
        return self._deltas[version - 1]

    def _matrix(self, version: int) -> np.ndarray:
        at, matrix = self._latest
        if at > version:
            at, matrix = 0, self._base
        while at < version:
            at += 1
            start, slab, appended = self._delta(at)
            matrix = np.vstack([matrix, appended])
            matrix[start : start + len(slab)] = slab
        self._latest = (at, matrix)
        return matrix

    def table(self, version: int) -> Table:
        matrix = self._matrix(version)
        columns = {
            f"f{i}": np.ascontiguousarray(matrix[:, i]) for i in range(COLUMNS - 1)
        }
        columns["label"] = np.ascontiguousarray(matrix[:, -1])
        return Table(columns)

    # --------------------------------------------------------- components
    def dataset(self, version: int) -> DatasetComponent:
        return DatasetComponent(
            name="feed.dataset",
            version=SemVer("master", 0, version),
            loader=lambda rng: self.table(version),
            output_schema=_RAW,
            content_key=f"feed-{self.seed}-{self.stream}-{self.rows}-v{version}",
        )

    def clean(self, version: int) -> LibraryComponent:
        return LibraryComponent(
            name="feed.clean",
            version=SemVer("master", 0, version),
            fn=_clean_fn,
            params={"clip": 4.0 + 0.05 * version},
            input_schema=_RAW,
            output_schema=_CLEAN,
        )

    def model(self, version: int) -> LibraryComponent:
        return LibraryComponent(
            name="feed.model",
            version=SemVer("master", 0, version),
            fn=_model_fn,
            params={"l2": 0.1 * (1 + version)},
            input_schema=_CLEAN,
            output_schema="feed/model",
            is_model=True,
        )

    def component(self, stage: str, version: int):
        return {"dataset": self.dataset, "clean": self.clean, "model": self.model}[
            stage
        ](version)

    def initial_components(self) -> dict:
        return {stage: self.component(stage, 0) for stage in self.spec.stages}

    def registry(self, last: int) -> ComponentRegistry:
        """A registry holding versions ``0..last`` of every stage:
        executables never cross the wire, so every replica that must
        *run* fetched commits (a merge) needs them bound up front."""
        registry = ComponentRegistry()
        for stage in self.spec.stages:
            for version in range(last + 1):
                registry.register(self.component(stage, version))
        return registry

    def new_repository(self, author: str, last: int) -> MLCask:
        """A repository holding the initial feed commit, able to run any
        version up to ``last``."""
        repo = MLCask(metric="accuracy", seed=self.seed, author=author)
        repo.registry = self.registry(last)
        repo.create_pipeline(self.spec, self.initial_components())
        return repo
