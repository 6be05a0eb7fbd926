"""The MLCask facade: repositories, commits, branches, and merges.

This is the system of paper section III: a dataset repository and a library
repository shared by all pipelines (so components dedup across pipelines),
plus a pipeline repository recording version updates. The facade wires the
ForkBase-like storage engine, the checkpoint store, the executor, and the
commit graph into the Git-like workflow of sections IV-V:

    repo = MLCask(metric="accuracy")
    repo.create_pipeline(spec, components)           # master.0.0
    repo.commit("name", {"model": cnn_v1})           # master.0.1
    repo.branch("name", "dev")                       # fork
    repo.commit("name", {...}, branch="dev")         # dev.0.0
    result = repo.merge("name", "master", "dev")     # metric-driven merge
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RepositoryError
from ..provenance.ledger import LineageLedger
from ..storage.gc import sweep_repository
from ..storage.kv import VersionedKV
from ..storage.object_store import ObjectStore
from . import persistence
from .branching import BranchManager
from .checkpoint import CheckpointStore, ChunkedCheckpointStore
from .commit import PipelineCommit, make_commit_id
from .component import Component, DatasetComponent, LibraryComponent
from .context import ExecutionContext
from .executor import Executor, RunReport
from .history import CommitGraph
from .pipeline import PipelineInstance, PipelineSpec
from .semver import MASTER, SemVer


class ComponentRegistry:
    """Maps component identifiers to the live objects holding their code.

    Commits reference components by identifier (``name@branch@s.i``);
    the registry resolves those references back to runnable components —
    the stand-in for the library repository's executables.
    """

    def __init__(self) -> None:
        self._by_id: dict[str, Component] = {}
        self._by_name: dict[str, list[Component]] = {}

    def register(self, component: Component) -> Component:
        existing = self._by_id.get(component.identifier)
        if existing is not None:
            if existing.fingerprint != component.fingerprint:
                raise RepositoryError(
                    f"conflicting registration for {component.identifier}"
                )
            return existing
        self._by_id[component.identifier] = component
        self._by_name.setdefault(component.name, []).append(component)
        return component

    def get(self, identifier: str) -> Component:
        if identifier not in self._by_id:
            raise RepositoryError(f"unknown component {identifier!r}")
        return self._by_id[identifier]

    def versions_of(self, name: str) -> list[Component]:
        return list(self._by_name.get(name, []))

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)


@dataclass
class MergeOutcome:
    """What a merge returned: the new commit plus search accounting."""

    commit: PipelineCommit
    fast_forward: bool = False
    winner_report: RunReport | None = None
    candidates_total: int = 0
    candidates_pruned_incompatible: int = 0
    candidates_evaluated: int = 0
    components_executed: int = 0
    components_reused: int = 0
    execution_seconds: float = 0.0
    storage_seconds: float = 0.0
    evaluations: list = field(default_factory=list)

    def winner_for(self, metric: str):
        """Best evaluated candidate under an alternative metric.

        Section V: with several evaluation metrics, "MLCask generates
        different optimal pipeline solutions for different metrics so that
        users could select the most suitable one". Returns
        ``(evaluation, score)`` or ``None`` if no candidate recorded the
        metric (e.g. after a fast-forward, where nothing was evaluated).
        """
        from .merge.metric_merge import winners_by_metric

        return winners_by_metric(self.evaluations, [metric]).get(metric)

    def summary(self) -> str:
        """One-paragraph account of what the merge did."""
        if self.fast_forward:
            return f"fast-forward to {self.commit.label}"
        return (
            f"metric-driven merge -> {self.commit.label} "
            f"(score {self.commit.score}): {self.candidates_total} raw candidates, "
            f"{self.candidates_pruned_incompatible} pruned incompatible, "
            f"{self.candidates_evaluated} evaluated, "
            f"{self.components_executed} components executed / "
            f"{self.components_reused} reused"
        )


class MLCask:
    """End-to-end pipeline life-cycle manager with version control."""

    def __init__(
        self,
        metric: str = "accuracy",
        seed: int = 0,
        checkpoints: CheckpointStore | None = None,
        author: str = "mlcask",
        objects: ObjectStore | None = None,
    ):
        self.metric = metric
        self.seed = seed
        self.author = author
        # ``objects`` is injectable so hosts can back a repository with a
        # shared chunk store (the multi-tenant hub's cross-tenant dedup);
        # by default each repository owns an isolated in-memory store.
        self.objects = objects if objects is not None else ObjectStore()
        self.checkpoints = checkpoints or ChunkedCheckpointStore(self.objects)
        # Every run through this repository leaves lineage behind: the
        # ledger is threaded into the executor (and adopted by any
        # ParallelExecutor derived from it), queried via repro.provenance.
        self.lineage = LineageLedger()
        self.executor = Executor(
            self.checkpoints, metric=metric, reuse=True, lineage=self.lineage
        )
        self.graph = CommitGraph()
        self.branches = BranchManager()
        self.registry = ComponentRegistry()
        self.library_repo = VersionedKV()
        self.dataset_repo = VersionedKV()
        self.pipeline_repo = VersionedKV()
        self._specs: dict[str, PipelineSpec] = {}
        self._sequence = 0
        self._remotes: dict[str, object] = {}
        self.saved = persistence.SavedMarks()

    # ------------------------------------------------------------ plumbing
    def spec(self, pipeline: str) -> PipelineSpec:
        if pipeline not in self._specs:
            raise RepositoryError(f"unknown pipeline {pipeline!r}")
        return self._specs[pipeline]

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def _register_components(self, components: dict[str, Component]) -> None:
        for component in components.values():
            self.registry.register(component)
            if isinstance(component, LibraryComponent):
                self.library_repo.put(
                    component.name,
                    component.metafile().to_bytes(),
                    branch=component.version.branch,
                )
            elif isinstance(component, DatasetComponent):
                self.dataset_repo.put(
                    component.name,
                    component.metafile().to_bytes(),
                    branch=component.version.branch,
                )

    def instance_for(self, commit: PipelineCommit) -> PipelineInstance:
        """Rebuild the runnable instance a commit describes."""
        spec = self.spec(commit.pipeline)
        components = {
            stage: self.registry.get(identifier)
            for stage, identifier in commit.component_versions.items()
        }
        return PipelineInstance(spec=spec, components=components)

    def _next_version(self, pipeline: str, branch: str) -> SemVer:
        count = self.branches.next_commit_count(pipeline, branch)
        return SemVer(branch, 0, count)

    def _store_commit(
        self,
        pipeline: str,
        branch: str,
        instance: PipelineInstance,
        parents: tuple[str, ...],
        report: RunReport | None,
        message: str,
        score_override: float | None = None,
    ) -> PipelineCommit:
        version = self._next_version(pipeline, branch)
        fingerprints = {
            stage: instance.component(stage).fingerprint
            for stage in instance.spec.stages
        }
        score = report.score if report else None
        if score is None:
            score = score_override
        commit = PipelineCommit(
            commit_id=make_commit_id(pipeline, version, parents, fingerprints),
            pipeline=pipeline,
            version=version,
            branch=branch,
            parents=parents,
            component_versions={
                stage: instance.component(stage).identifier
                for stage in instance.spec.stages
            },
            component_fingerprints=fingerprints,
            stage_outputs=dict(report.stage_outputs) if report else {},
            metrics=dict(report.metrics) if report else {},
            score=score,
            message=message,
            author=self.author,
            sequence=self._next_sequence(),
        )
        self.graph.add(commit)
        self.branches.set_head(pipeline, branch, commit.commit_id)
        self.branches.note_commit(pipeline, branch)
        if report is not None and report.lineage_rows:
            # Back-fill the adopting commit onto exactly the rows this
            # run appended (losing merge candidates' rows stay unbound).
            self.lineage.annotate_commit(
                commit.commit_id, branch, report.lineage_rows
            )
        self._write_pipeline_metafile(commit, instance)
        return commit

    def _write_pipeline_metafile(
        self, commit: PipelineCommit, instance: PipelineInstance
    ) -> None:
        from .metafile import PipelineMetafile

        metafile = PipelineMetafile(
            name=commit.pipeline,
            entry_point=instance.spec.topological_order()[0],
            stage_order=tuple(instance.spec.topological_order()),
            components=dict(commit.component_versions),
            outputs=dict(commit.stage_outputs),
        )
        self.pipeline_repo.put(
            commit.pipeline, metafile.to_bytes(), branch=commit.branch
        )

    # ----------------------------------------------------------- public API
    def create_pipeline(
        self,
        spec: PipelineSpec,
        components: dict[str, Component],
        message: str = "initial pipeline",
        run: bool = True,
    ) -> tuple[PipelineCommit, RunReport | None]:
        """Register and commit the initial version (``master.0.0``)."""
        if spec.name in self._specs:
            raise RepositoryError(f"pipeline {spec.name!r} already exists")
        instance = PipelineInstance(spec=spec, components=dict(components))
        instance.validate_compatibility()
        self._specs[spec.name] = spec
        self._register_components(instance.components)
        report = self._run(instance) if run else None
        commit = self._store_commit(
            spec.name, MASTER, instance, (), report, message
        )
        return commit, report

    def commit(
        self,
        pipeline: str,
        updates: dict[str, Component],
        branch: str = MASTER,
        message: str = "",
        validate: bool = True,
        run: bool = True,
    ) -> tuple[PipelineCommit, RunReport | None]:
        """Commit component updates on ``branch`` and (by default) retrain.

        With ``validate=True`` MLCask refuses to run a pipeline whose
        adjacent schemas mismatch — this is the behaviour that keeps its
        final-iteration time flat in Fig. 5 while the baselines burn time
        discovering the failure at runtime.
        """
        head = self.head_commit(pipeline, branch)
        instance = self.instance_for(head).with_updates(updates)
        if validate:
            instance.validate_compatibility()
        self._register_components(instance.components)
        report = self._run(instance) if run else None
        parents = (head.commit_id,)
        return (
            self._store_commit(pipeline, branch, instance, parents, report, message),
            report,
        )

    def _run(self, instance: PipelineInstance) -> RunReport:
        context = ExecutionContext(seed=self.seed, metric=self.metric)
        return self.executor.run(instance, context)

    def run_head(
        self, pipeline: str, branch: str = MASTER, workers: int = 1
    ) -> RunReport:
        """Re-run the branch head's pipeline against the checkpoint store.

        With warm checkpoints every stage is a reuse (the paper's "can be
        reused" guarantee); after a GC or on a fresh clone it recomputes
        what is missing. ``workers > 1`` executes independent DAG stages
        concurrently via the parallel engine (a chain has none and runs
        inline).
        """
        instance = self.instance_for(self.head_commit(pipeline, branch))
        context = ExecutionContext(seed=self.seed, metric=self.metric)
        if workers > 1:
            from ..engine import ParallelExecutor

            engine = ParallelExecutor.from_executor(self.executor, workers=workers)
            return engine.run(instance, context)
        return self.executor.run(instance, context)

    def head_commit(self, pipeline: str, branch: str = MASTER) -> PipelineCommit:
        return self.graph.get(self.branches.head(pipeline, branch))

    def branch(
        self, pipeline: str, new_branch: str, from_branch: str = MASTER
    ) -> PipelineCommit:
        """Create a branch at ``from_branch``'s head (section V, Branch)."""
        base = self.branches.create_branch(pipeline, new_branch, from_branch)
        return self.graph.get(base)

    def history(self, pipeline: str, branch: str = MASTER) -> list[PipelineCommit]:
        """Commits reachable from the branch head, oldest first."""
        head = self.branches.head(pipeline, branch)
        reachable = self.graph.ancestors(head)
        return sorted(
            (self.graph.get(c) for c in reachable), key=lambda c: c.sequence
        )

    # --------------------------------------------------------------- merge
    def merge(
        self,
        pipeline: str,
        head_branch: str,
        merge_head_branch: str,
        mode: str = "pcpr",
        search: str = "exhaustive",
        budget: int | None = None,
        time_budget_seconds: float | None = None,
        message: str = "",
        seed: int | None = None,
        workers: int = 1,
    ) -> MergeOutcome:
        """Merge ``merge_head_branch`` into ``head_branch``.

        Fast-forwards when possible (section V); otherwise runs the
        metric-driven merge over the pipeline search tree. ``mode`` selects
        the ablation: ``"pcpr"`` (full MLCask), ``"pc_only"`` (no reusable
        outputs), ``"none"`` (no pruning at all — the w/o PCPR baseline).
        ``search`` picks ``"exhaustive"``, ``"prioritized"``, or
        ``"random"``; ``budget`` caps evaluated candidates and
        ``time_budget_seconds`` caps wall-clock for the ordered searches.
        Every candidate runs on the calling thread, one at a time.
        ``workers`` (ordered searches only) is the width ``W`` of the
        draw window: the pick at draw ``j`` sees the scores of draws
        ``0 .. j - W``, so each ``(search, seed, workers)`` is one fixed
        evaluation sequence, and ``workers=1`` is the paper's sequential
        search. It buys no concurrency.
        """
        if self.branches.is_fast_forward(self.graph, pipeline, head_branch, merge_head_branch):
            return self._fast_forward(pipeline, head_branch, merge_head_branch, message)
        from .merge.metric_merge import metric_driven_merge

        return metric_driven_merge(
            self,
            pipeline,
            head_branch,
            merge_head_branch,
            mode=mode,
            search=search,
            budget=budget,
            time_budget_seconds=time_budget_seconds,
            message=message,
            seed=self.seed if seed is None else seed,
            workers=workers,
        )

    # --------------------------------------------------------- retrospection
    def diff(self, pipeline: str, old_ref: str, new_ref: str) -> str:
        """Human-readable component diff between two commits.

        Refs may be branch names or commit ids — the retrospective
        question "what changed between last month's production pipeline
        and today's?" is one call.
        """
        from .diff import render_diff

        return render_diff(
            self._resolve_ref(pipeline, old_ref), self._resolve_ref(pipeline, new_ref)
        )

    def log(self, pipeline: str, branch: str = MASTER) -> str:
        """git-log-like listing of the branch's history, newest first."""
        from .diff import render_log

        return render_log(self.history(pipeline, branch))

    def best_commit(
        self, pipeline: str, branch: str | None = None
    ) -> PipelineCommit:
        """Highest-scoring commit on a branch (or across all commits of
        the pipeline when ``branch`` is None)."""
        if branch is not None:
            candidates = self.history(pipeline, branch)
        else:
            candidates = [
                c for c in self.graph.all_commits() if c.pipeline == pipeline
            ]
        scored = [c for c in candidates if c.score is not None]
        if not scored:
            raise RepositoryError(f"no scored commits for {pipeline!r}")
        return max(scored, key=lambda c: c.score)

    def improvement_by_stage(self, pipeline: str, branch: str = MASTER) -> dict:
        """Attribute score movement to stages along the branch history."""
        from .diff import attribute_improvement

        return attribute_improvement(self.history(pipeline, branch))

    def lineage_of(self, ref: str) -> dict:
        """Retrospective audit: the upstream closure that fed an
        artifact, plus the commits/merges that consumed it. ``ref`` is a
        checkpoint output ref or an unambiguous prefix."""
        from ..provenance.queries import lineage_of

        return lineage_of(self, ref)

    def consumers_of(self, ref: str) -> dict:
        """Direct downstream readers of an artifact (records that took
        it as input, and the commits recording it)."""
        from ..provenance.queries import consumers_of

        return consumers_of(self, ref)

    def impact_of(self, component: str, version: str | None = None) -> dict:
        """What-if analysis: checkpoints, commits, and branch heads that
        would invalidate if ``component`` changed."""
        from ..provenance.queries import impact_of

        return impact_of(self, component, version=version)

    def _resolve_ref(self, pipeline: str, ref: str) -> PipelineCommit:
        """Accept a branch name, full commit id, or unambiguous prefix."""
        if self.branches.has_branch(pipeline, ref):
            return self.head_commit(pipeline, ref)
        if ref in self.graph:
            return self.graph.get(ref)
        matches = [
            c
            for c in self.graph.all_commits()
            if c.pipeline == pipeline
            and (c.commit_id.startswith(ref) or c.label == ref)
        ]
        if len(matches) == 1:
            return matches[0]
        raise RepositoryError(
            f"cannot resolve ref {ref!r} for pipeline {pipeline!r} "
            f"({len(matches)} matches)"
        )

    def _fast_forward(
        self, pipeline: str, head_branch: str, merge_head_branch: str, message: str
    ) -> MergeOutcome:
        """Duplicate the MERGE_HEAD tip onto HEAD with both parents."""
        head = self.head_commit(pipeline, head_branch)
        merge_head = self.head_commit(pipeline, merge_head_branch)
        instance = self.instance_for(merge_head)
        version = self._next_version(pipeline, head_branch)
        fingerprints = dict(merge_head.component_fingerprints)
        commit = PipelineCommit(
            commit_id=make_commit_id(
                pipeline, version, (head.commit_id, merge_head.commit_id), fingerprints
            ),
            pipeline=pipeline,
            version=version,
            branch=head_branch,
            parents=(head.commit_id, merge_head.commit_id),
            component_versions=dict(merge_head.component_versions),
            component_fingerprints=fingerprints,
            stage_outputs=dict(merge_head.stage_outputs),
            metrics=dict(merge_head.metrics),
            score=merge_head.score,
            message=message or f"fast-forward merge of {merge_head_branch}",
            author=self.author,
            sequence=self._next_sequence(),
        )
        self.graph.add(commit)
        self.branches.set_head(pipeline, head_branch, commit.commit_id)
        self.branches.note_commit(pipeline, head_branch)
        self._write_pipeline_metafile(commit, instance)
        return MergeOutcome(commit=commit, fast_forward=True)

    # ---------------------------------------------------------- accounting
    def storage_stats(self):
        """Combined storage counters across all repositories."""
        stats = self.checkpoints.stats
        for kv in (self.library_repo, self.dataset_repo, self.pipeline_repo):
            stats = stats.merged_with(kv.stats)
        return stats

    def gc(self):
        """Reclaim outputs no commit references (mark-and-sweep).

        Merge candidates that lost, and checkpoints orphaned by history
        pruning, stay in the immutable store until collected. Live roots
        are the stage outputs of every commit; everything else — chunks
        and checkpoint-index entries alike — is swept. Persistence of the
        repositories' metafiles (``library_repo`` etc.) is untouched.
        """
        return sweep_repository(self)[0]

    # -------------------------------------------------------------- remotes
    def add_remote(self, name: str, transport, max_pack_bytes: int | None = None):
        """Register a peer repository under ``name`` (like ``git remote add``).

        ``transport`` is any :class:`repro.remote.Transport` — a
        :class:`LocalTransport` around an in-process server, or an
        :class:`HttpTransport` pointed at a ``repro serve`` endpoint.
        ``max_pack_bytes`` overrides the per-message chunk-payload window
        (``None`` keeps the library default). Returns the
        :class:`repro.remote.Remote` handle.
        """
        from ..remote.client import Remote

        kwargs = {} if max_pack_bytes is None else {"max_pack_bytes": max_pack_bytes}
        remote = Remote(self, transport, name=name, **kwargs)
        self._remotes[name] = remote
        return remote

    def remote(self, name: str = "origin"):
        """The :class:`repro.remote.Remote` registered under ``name``."""
        if name not in self._remotes:
            raise RepositoryError(f"unknown remote {name!r}")
        return self._remotes[name]

    def remotes(self) -> list[str]:
        return sorted(self._remotes)

    @classmethod
    def clone(
        cls,
        transport,
        registry: ComponentRegistry | None = None,
        name: str = "origin",
        max_pack_bytes: int | None = None,
    ) -> "MLCask":
        """Replicate a peer repository end to end; see
        :func:`repro.remote.clone_repository`."""
        from ..remote.client import clone_repository

        return clone_repository(
            transport, registry=registry, name=name, max_pack_bytes=max_pack_bytes
        )

    # ---------------------------------------------------------- persistence
    def save_dir(self, path) -> None:
        """Persist state *and* content (chunks, recipes, checkpoint index,
        ledger) under a repository directory — the on-disk format the
        remote CLI verbs (``repro serve/clone/push/pull``) operate on.
        Saving again to the directory this repository was loaded from or
        last saved to writes what it gained since."""
        persistence.save_repository_dir(self, path)

    @classmethod
    def load_dir(
        cls, path, registry: ComponentRegistry | None = None
    ) -> "MLCask":
        """Rebuild a repository saved with :meth:`save_dir`."""
        return persistence.load_repository_dir(path, registry=registry)
