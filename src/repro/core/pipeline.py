"""Pipeline structure: the DAG of Definitions 1-2 plus concrete bindings.

Definition 1: a pipeline with components ``f_i ∈ F`` is a DAG ``G=(F,E)``
whose vertices are components and whose edges are data flows. Definition 2
gives ``suc(f)``/``pre(f)``. The evaluated pipelines are chains (dataset →
pre-processing steps → model), but the spec supports general DAGs with a
single source (the dataset) and a single sink (the model stage).

Two layers:

* :class:`PipelineSpec` — the named stage structure, stable across commits;
* :class:`PipelineInstance` — a spec with each stage bound to a concrete
  component version (what one commit/search-tree path describes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import IncompatibleComponentsError, PipelineError
from .component import Component, DatasetComponent, LibraryComponent


@dataclass(frozen=True)
class PipelineSpec:
    """Stage names plus edges; validated to be a single-source DAG."""

    name: str = field(metadata={"keyed": True})  # a spec row is stored under it
    stages: tuple[str, ...]
    edges: tuple[tuple[str, str], ...] = ()

    @classmethod
    def chain(cls, name: str, stages: list[str] | tuple[str, ...]) -> "PipelineSpec":
        """The common case: a linear chain in the given order."""
        stages = tuple(stages)
        edges = tuple(zip(stages[:-1], stages[1:]))
        return cls(name=name, stages=stages, edges=edges)

    def __post_init__(self) -> None:
        if len(self.stages) < 2:
            raise PipelineError("a pipeline needs at least a dataset and one library")
        if len(set(self.stages)) != len(self.stages):
            raise PipelineError(f"duplicate stage names in {self.stages}")
        known = set(self.stages)
        for src, dst in self.edges:
            if src not in known or dst not in known:
                raise PipelineError(f"edge ({src}, {dst}) references unknown stage")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        order = self.topological_order()
        if len(order) != len(self.stages):
            raise PipelineError(f"pipeline {self.name!r} contains a cycle")

    # ---------------------------------------------------------------- graph
    def predecessors(self, stage: str) -> list[str]:
        """pre(f): stages feeding into ``stage`` (Definition 2)."""
        return [src for src, dst in self.edges if dst == stage]

    def successors(self, stage: str) -> list[str]:
        """suc(f): stages consuming ``stage``'s output (Definition 2)."""
        return [dst for src, dst in self.edges if src == stage]

    def sources(self) -> list[str]:
        has_incoming = {dst for _, dst in self.edges}
        return [s for s in self.stages if s not in has_incoming]

    def sinks(self) -> list[str]:
        has_outgoing = {src for src, _ in self.edges}
        return [s for s in self.stages if s not in has_outgoing]

    def topological_order(self) -> list[str]:
        """Kahn's algorithm, ties broken by declared stage order."""
        indegree = {s: 0 for s in self.stages}
        for _, dst in self.edges:
            indegree[dst] += 1
        declared = {s: i for i, s in enumerate(self.stages)}
        ready = sorted([s for s, d in indegree.items() if d == 0], key=declared.get)
        order: list[str] = []
        while ready:
            stage = ready.pop(0)
            order.append(stage)
            for nxt in self.successors(stage):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
            ready.sort(key=declared.get)
        return order

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass
class PipelineInstance:
    """A spec with concrete components bound to every stage."""

    spec: PipelineSpec
    components: dict[str, Component] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [s for s in self.spec.stages if s not in self.components]
        if missing:
            raise PipelineError(f"stages without components: {missing}")
        extra = [s for s in self.components if s not in self.spec.stages]
        if extra:
            raise PipelineError(f"components bound to unknown stages: {extra}")
        for source in self.spec.sources():
            if not isinstance(self.components[source], DatasetComponent):
                raise PipelineError(
                    f"source stage {source!r} must be a dataset component"
                )
        for stage in self.spec.stages:
            if stage not in self.spec.sources() and not isinstance(
                self.components[stage], LibraryComponent
            ):
                raise PipelineError(f"stage {stage!r} must be a library component")

    def component(self, stage: str) -> Component:
        return self.components[stage]

    def validate_compatibility(self) -> None:
        """Static schema check along every edge; raises on the first
        incompatible pair (what lets MLCask skip doomed runs up front)."""
        for src, dst in self.spec.edges:
            producer = self.components[src]
            consumer = self.components[dst]
            if isinstance(consumer, LibraryComponent):
                if not consumer.accepts(producer.output_schema):
                    raise IncompatibleComponentsError(
                        producer.identifier, consumer.identifier
                    )

    def is_compatible(self) -> bool:
        try:
            self.validate_compatibility()
        except IncompatibleComponentsError:
            return False
        return True

    def signature(self) -> tuple[tuple[str, str], ...]:
        """(stage, component fingerprint) pairs in topological order —
        the identity of this exact pipeline configuration."""
        return tuple(
            (stage, self.components[stage].fingerprint)
            for stage in self.spec.topological_order()
        )

    def describe(self) -> str:
        parts = [
            self.components[stage].display for stage in self.spec.topological_order()
        ]
        return " -> ".join(parts)

    def with_updates(self, updates: dict[str, Component]) -> "PipelineInstance":
        merged = dict(self.components)
        merged.update(updates)
        return PipelineInstance(spec=self.spec, components=merged)
