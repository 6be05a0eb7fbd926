"""Pipeline components: datasets and libraries (paper Definitions 3-4).

A component is "any computational unit in the ML pipeline, including
datasets, pre-processing methods, and ML models" (section III). A library
component is a transformation ``y = f(x | θ)`` (Definition 3); component
``f_j`` is *compatible* with its predecessor ``f_i`` iff it can process
``f_i``'s output correctly (Definition 4), which the paper reduces to an
output-data-schema check (section IV-B).

Schemas here are opaque tags (strings). Workloads use readable tags like
``"readmission/features_v1"``; dataset components derive theirs from the
data via the paper's schema-hash functions. A library may declare the
wildcard input ``"*"`` meaning it accepts any upstream schema.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ComponentError
from ..storage.hashing import fingerprint_many, meta_schema_hash
from .metafile import DatasetMetafile, LibraryMetafile
from .semver import SemVer

if TYPE_CHECKING:
    import numpy as np

ANY_SCHEMA = "*"


def _params_fingerprint(params: dict) -> str:
    """Deterministic digest of a hyperparameter dict."""
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return meta_schema_hash({"params": "|".join(parts)})


@dataclass(frozen=True)
class Component:
    """Shared identity of every component: name plus semantic version."""

    name: str
    version: SemVer

    @property
    def identifier(self) -> str:
        """``<name, branch@schema.increment>`` identity (paper notation)."""
        return f"{self.name}@{self.version.full}"

    @property
    def display(self) -> str:
        return f"<{self.name}, {self.version}>"

    @property
    def params_digest(self) -> str:
        """Deterministic digest of the component's hyperparameters, or
        ``""`` for parameterless components (datasets). Lineage records
        carry this so an audit can tell two same-version configurations
        apart without re-deriving the full fingerprint."""
        params = getattr(self, "params", None)
        return _params_fingerprint(params) if params else ""


@dataclass(frozen=True)
class DatasetComponent(Component):
    """A dataset: loader callable plus the schema derived from its data.

    ``loader(context)`` must return a serializable payload (usually a
    :class:`repro.data.Table`). ``output_schema`` is the dataset's schema
    hash/tag; ``content_key`` distinguishes different data snapshots with
    the same schema (e.g. successive daily feeds), so the checkpoint store
    can tell them apart.
    """

    loader: Callable[..., Any] = None  # type: ignore[assignment]
    output_schema: str = ""
    content_key: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.loader is None:
            raise ComponentError(f"dataset {self.name!r} needs a loader callable")
        if not self.output_schema:
            raise ComponentError(f"dataset {self.name!r} needs an output schema")

    def materialize(self, rng: np.random.Generator):
        return self.loader(rng)

    @property
    def fingerprint(self) -> str:
        return fingerprint_many([
            "dataset", self.name, self.version.full, self.output_schema, self.content_key,
        ])

    def metafile(self) -> DatasetMetafile:
        return DatasetMetafile(
            name=self.name,
            schema_hash=self.output_schema,
            description=self.description,
        )


@dataclass(frozen=True)
class LibraryComponent(Component):
    """A pre-processing method or model: ``y = fn(x | params)``.

    ``fn(payload, params, rng)`` returns the stage output. Model stages set
    ``is_model=True`` and must return a dict containing a ``"metrics"``
    mapping (metric name -> float); the executor reads the pipeline score
    from there.
    """

    fn: Callable[..., Any] = None  # type: ignore[assignment]
    params: dict = field(default_factory=dict)
    input_schema: str = ANY_SCHEMA
    output_schema: str = ""
    is_model: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.fn is None:
            raise ComponentError(f"library {self.name!r} needs a callable")
        if not self.output_schema:
            raise ComponentError(f"library {self.name!r} needs an output schema")

    def accepts(self, producer_schema: str) -> bool:
        """Definition 4 compatibility via schema tags (section IV-B)."""
        return self.input_schema == ANY_SCHEMA or self.input_schema == producer_schema

    def run(self, payload, rng: np.random.Generator):
        output = self.fn(payload, dict(self.params), rng)
        if self.is_model:
            if not isinstance(output, dict) or "metrics" not in output:
                raise ComponentError(
                    f"model component {self.identifier} must return a dict "
                    "with a 'metrics' mapping"
                )
        return output

    @property
    def fingerprint(self) -> str:
        return fingerprint_many([
            "library",
            self.name,
            self.version.full,
            self.input_schema,
            self.output_schema,
            _params_fingerprint(self.params),
        ])

    def metafile(self) -> LibraryMetafile:
        return LibraryMetafile(
            name=self.name,
            entry_point=getattr(self.fn, "__name__", "run"),
            input_schema=self.input_schema,
            output_schema=self.output_schema,
            hyperparameters={k: str(v) for k, v in sorted(self.params.items())},
            description=self.description,
        )

    def evolved(
        self,
        *,
        version: SemVer | None = None,
        fn: Callable[..., Any] | None = None,
        params: dict | None = None,
        input_schema: str | None = None,
        output_schema: str | None = None,
        schema_changed: bool = False,
        branch: str | None = None,
    ) -> "LibraryComponent":
        """Derive the next version of this library (convenience for
        workload version families). If ``version`` is not given, the bump
        follows section IV-B: schema change bumps ``schema``, otherwise
        ``increment``."""
        if version is None:
            base = self.version if branch is None else self.version.on_branch(branch)
            version = base.bump_schema() if schema_changed else base.bump_increment()
        return LibraryComponent(
            name=self.name,
            version=version,
            fn=fn if fn is not None else self.fn,
            params=dict(params) if params is not None else dict(self.params),
            input_schema=input_schema if input_schema is not None else self.input_schema,
            output_schema=output_schema if output_schema is not None else self.output_schema,
            is_model=self.is_model,
            description=self.description,
        )
