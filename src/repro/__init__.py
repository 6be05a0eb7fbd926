"""repro: a from-scratch reproduction of MLCask (ICDE 2021).

MLCask is a Git-like end-to-end ML life-cycle management system with
non-linear version control semantics for collaborative data analytics
pipelines. This package implements the full system described in the paper
— semantic component versioning, branch/merge on pipelines, the
metric-driven merge with PC/PR search-tree pruning, prioritized pipeline
search — together with every substrate its evaluation depends on: a
ForkBase-like deduplicating storage engine, a pipeline executor with
checkpoint reuse, numpy-only ML components, the four evaluated workloads
on synthetic data, and the ModelDB/MLflow baseline policies.

Quickstart::

    from repro import MLCask, PipelineSpec
    from repro.workloads import readmission_workload

    workload = readmission_workload()
    repo = MLCask(metric="accuracy")
    repo.create_pipeline(workload.spec, workload.initial_components())
    repo.branch(workload.name, "dev")
    repo.commit(workload.name, {"model": workload.component("model", 1)}, branch="dev")
    outcome = repo.merge(workload.name, "master", "dev")
    print(outcome.commit.describe())
"""

from typing import TYPE_CHECKING

from .errors import (
    IncompatibleComponentsError,
    MergeError,
    MLCaskError,
    NoCandidateError,
    PipelineError,
    RepositoryError,
    StorageError,
    VersionError,
)

if TYPE_CHECKING:
    from .core import (
        ANY_SCHEMA,
        Component,
        ComponentRegistry,
        DatasetComponent,
        ExecutionContext,
        Executor,
        LibraryComponent,
        MergeOutcome,
        MLCask,
        PipelineCommit,
        PipelineInstance,
        PipelineSpec,
        RunReport,
        SemVer,
    )
    from .data import Table

__version__ = "1.1.0"

__all__ = [
    "ANY_SCHEMA",
    "Component",
    "ComponentRegistry",
    "DatasetComponent",
    "ExecutionContext",
    "Executor",
    "LibraryComponent",
    "MergeOutcome",
    "MLCask",
    "PipelineCommit",
    "PipelineInstance",
    "PipelineSpec",
    "RunReport",
    "SemVer",
    "Table",
    "IncompatibleComponentsError",
    "MergeError",
    "MLCaskError",
    "NoCandidateError",
    "PipelineError",
    "RepositoryError",
    "StorageError",
    "VersionError",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562, so that importing a serving submodule loads neither all of core nor numpy.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name == "Table":
        from . import data as home
    else:
        from . import core as home
    return getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__})
