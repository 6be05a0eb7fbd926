"""The four workloads: what runs, in which order, and what must be true after.

Every workload is a fixed, seeded *plan* of operations against the public
API (``MLCask.commit/merge``, ``Remote.push/fetch/pull/manifest``,
``clone_repository``): op counts follow from ``--seconds`` and nothing
else, so byte and count figures repeat exactly at a fixed seed. A plan is
made of *steps* — the workload's repeating unit, whose median is the
headline ``step_p50_ms``:

=====================  ===================================================
``collab_cycle``       one 7-op collaboration cycle between replicas A, B
``read_storm``         one block of 10 reads (6 poll, 3 fetch, 1 clone)
``ingest_beside_reads`` one writer iteration (feed commit + push)
``local_evolve_merge`` one evolve-and-merge round over the 4 paper apps
=====================  ===================================================

All loops are closed: a client issues its next op when the previous one
returned. No section uses more client threads than :func:`client_threads`.
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro import MLCask
from repro.errors import IncompatibleComponentsError, MLCaskError, PushRejectedError
from repro.remote import client as remote_client  # clone through the module: see layers
from repro.storage.hashing import sha256_hex
from repro.workloads import (
    ALL_WORKLOADS,
    apply_nonlinear_history,
    linear_script,
    nonlinear_script,
)

from feed import PIPELINE, Feed

#: ``--seconds`` the base sizes below were calibrated for on the 2-core
#: reference box (each timed section then takes about that long).
BASE_SECONDS = 14
#: A section that overruns its budget this many times over is cut short;
#: every op it did not get to counts as failed.
OVERRUN = 4
OP_TIMEOUT = 30.0  # socket timeout of every request, seconds


def client_threads() -> int:
    """Concurrent clients of the threaded sections: ``nproc``, at most 2 —
    the driver is one GIL-bound process, a third thread adds no load."""
    return max(1, min(2, os.cpu_count() or 1))


#: Feed commits a hub repository is seeded with before a read or ingest section.
SEEDED_COMMITS = 12


def scaled(base: int, seconds: float, quick: bool) -> int:
    count = base * seconds / BASE_SECONDS
    return max(2, round(count / 10 if quick else count))


class StepFailed(Exception):
    """An op failed; the section stops and its remaining ops count failed."""


class Ops:
    """Times ops, counts attempts and failures; one per client thread."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.samples: dict[str, list[float]] = {}
        self.steps: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, kind: str, fn, *args, rejects=None, **kwargs):
        """Run one op. A raised library or OS error — refusal, shed,
        timeout — fails it and yields no latency sample. With ``rejects``
        the op succeeds only by raising exactly that typed error."""
        self.attempted += 1
        if time.monotonic() > self.deadline:
            self._fail(kind, "section overran its time budget")
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except (MLCaskError, OSError) as error:
            if rejects is None or not isinstance(error, rejects):
                self._fail(kind, f"{type(error).__name__}: {error}")
            value = error
        else:
            if rejects is not None:
                self._fail(kind, f"expected {rejects.__name__}, op succeeded")
        self.samples.setdefault(kind, []).append(time.perf_counter() - start)
        return value

    def check(self, kind: str, condition: bool, message: str) -> None:
        """An op that returned the wrong thing failed just the same."""
        if not condition:
            self.samples[kind].pop()
            self._fail(kind, message)

    def _fail(self, kind: str, message: str):
        self.failed += 1
        self.errors.append(f"{kind}: {message}")
        raise StepFailed(message)

    def abandon(self, planned: int) -> None:
        """Count the ops of a cut-short section that were never issued."""
        missing = max(0, planned - self.attempted)
        self.attempted += missing
        self.failed += missing

    def commit(self, kind: str, fn, *args):
        """A commit op (``MLCask.commit`` / ``create_pipeline``): returns
        the run report; a pipeline that did not run through failed."""
        _, report = self.call(kind, fn, *args)
        self.check(kind, not report.failed, f"pipeline failed at {report.failure_stage}")
        return report

    def merge(self, other: "Ops") -> None:
        for kind, values in other.samples.items():
            self.samples.setdefault(kind, []).extend(values)
        self.steps.extend(other.steps)
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)


def run_threads(targets) -> None:
    """Run the callables concurrently from a common start line; re-raise
    the first exception any of them died with."""
    barrier = threading.Barrier(len(targets))
    crashes: list[BaseException] = []

    def guarded(target):
        try:
            barrier.wait()
            target()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            crashes.append(error)
            barrier.abort()

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise crashes[0]


def blob_failures(repo, label: str) -> list[str]:
    """Every stage output of every commit must reassemble to its digest."""
    failures = []
    blobs = {d for c in repo.graph.all_commits() for d in c.stage_outputs.values()}
    for digest in sorted(blobs):
        if sha256_hex(repo.objects.get(digest)) != digest:
            failures.append(f"{label}: blob {digest[:12]} does not match its digest")
    if not blobs:
        failures.append(f"{label}: no blobs to verify")
    return failures


def merge_failures(repo, outcome, label: str) -> list[str]:
    """The merge commit's score is the best evaluated candidate's and is
    no worse than either parent's."""
    failures = []
    scores = [e.score for e in outcome.evaluations if e.score is not None]
    if not scores or outcome.commit.score != max(scores):
        failures.append(f"{label}: merge score is not the best candidate's")
    for parent in outcome.commit.parents:
        score = repo.graph.get(parent).score
        if score is not None and outcome.commit.score < score:
            failures.append(f"{label}: merge scored below parent {parent[:12]}")
    return failures


def store_bytes(repo) -> tuple[int, int, int]:
    stats = repo.objects.stats
    return stats.logical_bytes, stats.physical_bytes, stats.dedup_hit_bytes


def books(writers, hub=None) -> dict:
    """Running totals whose growth over a section goes into ``counts``."""
    totals = {
        "logical_bytes": sum(w.objects.stats.logical_bytes for w in writers),
        "dedup_hit_bytes": sum(w.objects.stats.dedup_hit_bytes for w in writers),
        "ledger_records": sum(len(w.lineage) for w in writers),
    }
    if hub is not None:
        totals["stored_bytes"] = hub.stored_bytes()
    return totals


class Workload:
    """Shared shape: ``setup`` (untimed, includes one warm-up op of every
    type), ``run`` (the timed section), ``verify`` (output checks)."""

    name = ""
    why = ""
    uses_hub = True
    #: section-level per-op figures this workload has (see metrics.per_op)
    figures: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, quick: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.hub = None
        self.workdir = ""
        self.transports: list = []
        #: exact-repeat counters: identical for two runs at one seed
        self.counts: dict[str, float] = {}
        self.failures: list[str] = []
        self.wall_s = 0.0
        #: wall per phase and round, and merge workers (local workload only)
        self.phase_s: dict[str, list[float]] = {}
        self.workers = 1

    def new_ops(self) -> Ops:
        return Ops(time.monotonic() + OVERRUN * max(self.seconds, 5.0))

    def tally(self, **amounts) -> None:
        for key, amount in amounts.items():
            self.counts[key] = self.counts.get(key, 0) + amount

    def connect(self, repo: str):
        transport = self.hub.transport(repo, timeout=OP_TIMEOUT)
        self.transports.append(transport)
        return transport

    def clone(self, repo: str):
        """``clone_repository`` on a connection of its own, closed after."""
        transport = self.connect(repo)
        try:
            return remote_client.clone_repository(transport)
        finally:
            transport.close()

    def wire_bytes(self) -> int:
        return sum(t.bytes_transferred for t in self.transports)

    def reset_wire(self) -> None:
        for transport in self.transports:
            transport.reset_counters()

    def close(self) -> None:
        for transport in self.transports:
            transport.close()

    # ----------------------------------------------------- shared checks
    def verify_hub_repo(self, repo_name: str, writer: MLCask, replicas) -> None:
        """Replica heads equal the writer's and the hub's; a verifying
        re-clone reproduces every blob; the hub's books match its disk."""
        head = writer.branches.head(PIPELINE, "master")
        remote = writer.remote("origin")
        advertised = remote.refs().get(PIPELINE, {}).get("master")
        if advertised != head:
            self.failures.append(f"{repo_name}: hub head differs from the writer's")
        for label, replica in replicas:
            replica.remote("origin").fetch()
            tracked = replica.branches.head(PIPELINE, "origin/master")
            if tracked != head:
                self.failures.append(f"{repo_name}: replica {label} is not at the writer's head")
        fresh = self.clone(repo_name)
        if fresh.branches.head(PIPELINE, "master") != head:
            self.failures.append(f"{repo_name}: re-clone is not at the writer's head")
        self.failures.extend(blob_failures(fresh, f"{repo_name} re-clone"))
        booked = remote.stats()["storage"]["physical_bytes"]
        on_disk = self.hub.disk_bytes("chunks")
        if booked != on_disk:
            self.failures.append(
                f"{repo_name}: hub books {booked} physical bytes, "
                f"{on_disk} bytes are under <root>/chunks"
            )


# --------------------------------------------------------------- collab_cycle
class CollabCycle(Workload):
    name = "collab_cycle"
    why = (
        "serial collaboration loop over two replicas and the hub: every layer "
        "does some work and none dominates, so it is the regression net"
    )
    figures = ("cycle_p50_ms", "wire_bytes_per_logical_byte")
    BASE_CYCLES = 44
    OPS_PER_CYCLE = 7

    def __init__(self, seed, seconds, quick=False):
        super().__init__(seed, seconds, quick)
        self.cycles = scaled(self.BASE_CYCLES, seconds, quick)
        self.feed = Feed(seed, stream=0)

    def setup(self, hub, workdir):
        self.hub = hub
        last = self.cycles + 1  # + the warm-up cycle
        self.a = self.feed.new_repository("A", last)
        self.a.add_remote("origin", self.connect("collab")).push(PIPELINE)
        self.b = remote_client.clone_repository(
            self.connect("collab"), registry=self.feed.registry(last), author="B"
        )
        self._cycle(self.new_ops(), 1)  # warm-up: one op of every type

    def _cycle(self, ops: Ops, k: int) -> None:
        a, b, feed = self.a, self.b, self.feed
        ra, rb = a.remote("origin"), b.remote("origin")
        start = time.perf_counter()
        report = ops.commit(
            "commit", a.commit, PIPELINE, {"dataset": feed.dataset(k), "model": feed.model(k)}
        )
        pushed = ops.call("push", ra.push, PIPELINE)
        clean_report = ops.commit("commit_clean", b.commit, PIPELINE, {"clean": feed.clean(k)})
        ops.call("push_rejected", rb.push, PIPELINE, rejects=PushRejectedError)
        pulled = ops.call("pull_merge", rb.pull, PIPELINE)
        ops.check("pull_merge", pulled.action == "merged", f"pull was {pulled.action}")
        pushed_merge = ops.call("push_merge", rb.push, PIPELINE)
        forwarded = ops.call("pull_ff", ra.pull, PIPELINE)
        ops.check("pull_ff", forwarded.action == "fast-forward", f"pull was {forwarded.action}")
        ops.steps.append(time.perf_counter() - start)

        outcome = pulled.outcome
        self.failures.extend(merge_failures(b, outcome, f"cycle {k}"))
        self.tally(
            chunks_sent=pushed.chunks_sent + pushed_merge.chunks_sent,
            hub_new_bytes=pushed.chunk_bytes_sent + pushed_merge.chunk_bytes_sent,
            stages_executed=report.n_executed + clean_report.n_executed + outcome.components_executed,
            stages_reused=report.n_reused + clean_report.n_reused + outcome.components_reused,
            candidates_total=outcome.candidates_total,
            candidates_evaluated=outcome.candidates_evaluated,
        )

    def run(self) -> Ops:
        ops = self.new_ops()
        self.counts.clear()
        self.reset_wire()
        before = self._books()
        start = time.perf_counter()
        try:
            for k in range(2, self.cycles + 2):
                self._cycle(ops, k)
        except StepFailed:
            ops.abandon(self.cycles * self.OPS_PER_CYCLE)
        self.wall_s = time.perf_counter() - start
        self.tally(steps=len(ops.steps), wire_bytes=self.wire_bytes())
        self.tally(**{key: value - before[key] for key, value in self._books().items()})
        return ops

    def _books(self) -> dict:
        return books([self.a, self.b], self.hub)

    def verify(self):
        if self.a.branches.head(PIPELINE, "master") != self.b.branches.head(PIPELINE, "master"):
            self.failures.append("collab: replicas A and B ended on different heads")
        self.verify_hub_repo("collab", self.a, [("B", self.b)])


# ----------------------------------------------------------------- read_storm
def seeded_history(feed: Feed, commits: int, last: int) -> MLCask:
    """A repository with ``commits`` feed commits on top of the initial
    one: a new dataset version each, every fourth with a new model."""
    repo = feed.new_repository("seed", last)
    for k in range(1, commits + 1):
        updates = {"dataset": feed.dataset(k)}
        if k % 4 == 0:
            updates["model"] = feed.model(k)
        repo.commit(PIPELINE, updates)
    return repo


class ReadStorm(Workload):
    name = "read_storm"
    why = (
        "read path only, nproc closed-loop readers on a pre-seeded repo: the "
        "response cache is hit-heavy by construction and no write-path layer works"
    )
    figures = ("reads_per_s",)
    BASE_BLOCKS = 45  # per reader thread
    BLOCK = ("poll",) * 6 + ("fetch",) * 3 + ("clone",)

    def __init__(self, seed, seconds, quick=False):
        super().__init__(seed, seconds, quick)
        self.blocks = scaled(self.BASE_BLOCKS, seconds, quick)
        self.history = SEEDED_COMMITS // 4 if quick else SEEDED_COMMITS
        self.readers = client_threads()
        self.feed = Feed(seed, stream=1)

    def plan(self, reader: int) -> list[tuple[str, ...]]:
        """The reader's op sequence: every block holds the 60/30/10 mix,
        in an order drawn from the seed."""
        rng = random.Random(f"{self.seed}/{reader}")
        return [tuple(rng.sample(self.BLOCK, len(self.BLOCK))) for _ in range(self.blocks)]

    def setup(self, hub, workdir):
        self.hub = hub
        self.writer = seeded_history(self.feed, self.history, self.history)
        self.seed_logical = self.writer.objects.stats.logical_bytes
        self.writer.add_remote("origin", self.connect("storm")).push(PIPELINE)
        self.replicas = [
            remote_client.clone_repository(self.connect("storm"))
            for _ in range(self.readers)
        ]
        warm = self.new_ops()
        for replica in self.replicas:
            for op in ("poll", "fetch", "clone"):
                self._read(warm, replica, op)

    def _read(self, ops: Ops, replica, op: str) -> None:
        remote = replica.remote("origin")
        if op == "poll":
            ops.call("poll", remote.manifest)
        elif op == "fetch":
            fetched = ops.call("fetch", remote.fetch)
            ops.check("fetch", fetched.chunks_received == 0, "an up-to-date fetch moved chunks")
        else:
            ops.call("clone", self.clone, "storm")

    def _reader(self, ops: Ops, replica, plan) -> None:
        try:
            for block in plan:
                start = time.perf_counter()
                for op in block:
                    self._read(ops, replica, op)
                ops.steps.append(time.perf_counter() - start)
        except StepFailed:
            ops.abandon(len(plan) * len(self.BLOCK))

    def run(self) -> Ops:
        self.counts.clear()
        self.reset_wire()
        each = [self.new_ops() for _ in self.replicas]
        start = time.perf_counter()
        run_threads(
            [
                lambda i=i: self._reader(each[i], self.replicas[i], self.plan(i))
                for i in range(self.readers)
            ]
        )
        self.wall_s = time.perf_counter() - start
        ops = self.new_ops()
        for one in each:
            ops.merge(one)
        # Nothing is committed here: the store figure is the seeded
        # history's, bytes under the hub root per byte it committed.
        self.tally(
            steps=len(ops.steps),
            wire_bytes=self.wire_bytes(),
            logical_bytes=self.seed_logical,
            stored_bytes=self.hub.stored_bytes(),
        )
        return ops

    def verify(self):
        self.verify_hub_repo(
            "storm", self.writer, [(str(i), r) for i, r in enumerate(self.replicas)]
        )


# -------------------------------------------------------- ingest_beside_reads
class IngestBesideReads(Workload):
    name = "ingest_beside_reads"
    why = (
        "one writer committing and pushing feed versions beside one reader on the "
        "same repo: chunk writes, persistence and cache invalidation on every push"
    )
    figures = ("ingest_mb_per_s", "wire_bytes_per_logical_byte")
    BASE_ITERATIONS = 48
    CLONE_EVERY = 10

    def __init__(self, seed, seconds, quick=False):
        super().__init__(seed, seconds, quick)
        self.iterations = scaled(self.BASE_ITERATIONS, seconds, quick)
        self.history = SEEDED_COMMITS // 4 if quick else SEEDED_COMMITS
        self.feed = Feed(seed, stream=2)

    def setup(self, hub, workdir):
        self.hub = hub
        last = self.history + self.iterations + 1
        self.writer = seeded_history(self.feed, self.history, last)
        self.writer.add_remote("origin", self.connect("ingest")).push(PIPELINE)
        self.reader = remote_client.clone_repository(self.connect("ingest"))
        warm = self.new_ops()
        self._write(warm, self.history + 1)
        self._read(warm, 0)
        self._read(warm, self.CLONE_EVERY - 1)

    def _write(self, ops: Ops, version: int) -> None:
        start = time.perf_counter()
        report = ops.commit(
            "commit", self.writer.commit, PIPELINE, {"dataset": self.feed.dataset(version)}
        )
        pushed = ops.call("push", self.writer.remote("origin").push, PIPELINE)
        ops.steps.append(time.perf_counter() - start)
        self.tally(
            chunks_sent=pushed.chunks_sent,
            hub_new_bytes=pushed.chunk_bytes_sent,
            stages_executed=report.n_executed,
            stages_reused=report.n_reused,
        )

    def _read(self, ops: Ops, index: int) -> None:
        if index % self.CLONE_EVERY == self.CLONE_EVERY - 1:
            ops.call("clone", self.clone, "ingest")
        else:
            ops.call("fetch", self.reader.remote("origin").fetch)

    def run(self) -> Ops:
        self.counts.clear()
        self.reset_wire()
        writer_ops, reader_ops = self.new_ops(), self.new_ops()
        writer_transport = self.writer.remote("origin").transport
        before = books([self.writer], self.hub)
        done = threading.Event()
        first = self.history + 2

        def write():
            try:
                for version in range(first, first + self.iterations):
                    self._write(writer_ops, version)
            except StepFailed:
                writer_ops.abandon(2 * self.iterations)
            finally:
                done.set()

        def read():
            index = 0
            try:
                while not done.is_set():
                    self._read(reader_ops, index)
                    index += 1
            except StepFailed:
                pass  # the failed op is already counted

        start = time.perf_counter()
        run_threads([write, read])
        self.wall_s = time.perf_counter() - start
        # The writer's own connection: the reader's traffic varies with speed.
        self.tally(steps=len(writer_ops.steps), wire_bytes=writer_transport.bytes_transferred)
        after = books([self.writer], self.hub)
        self.tally(**{key: value - before[key] for key, value in after.items()})
        self.reader_ops = reader_ops.attempted  # varies with speed: not an exact-repeat count
        writer_ops.merge(reader_ops)
        return writer_ops

    def verify(self):
        self.verify_hub_repo("ingest", self.writer, [("reader", self.reader)])


# --------------------------------------------------------- local_evolve_merge
class LocalEvolveMerge(Workload):
    name = "local_evolve_merge"
    why = (
        "the paper's own evaluation, no hub and no network: executor, engine, "
        "checkpoint store and merge search do all the work on the four real apps"
    )
    uses_hub = False
    APPS = ("readmission", "dpm", "sa", "autolearn")
    BASE_ROUNDS = 3
    SCALE = 0.5

    def __init__(self, seed, seconds, quick=False):
        super().__init__(seed, seconds, quick)
        self.rounds = 1 if quick else max(3, round(self.BASE_ROUNDS * seconds / BASE_SECONDS))
        self.scale = 0.15 if quick else self.SCALE
        self.workers = client_threads()
        self.phase_s: dict[str, list[float]] = {"linear": [], "merge": [], "merge_parallel": []}

    def setup(self, hub, workdir):
        self.workdir = workdir
        # Warm-up: evolve and merge one app once, so imports, BLAS and the
        # merge engine's threads are paid for before timing.
        self._round(self.new_ops(), self.scale, label="warm", apps=("dpm",))

    def _history_dir(self, app: str, scale: float) -> str:
        """The two-branch history the merges start from, built once per
        app and saved: every merge then loads its own fresh copy."""
        path = os.path.join(self.workdir, f"history-{app}-{scale}")
        if not os.path.isdir(path):
            workload = ALL_WORKLOADS[app](scale=scale, seed=self.seed)
            repo = MLCask(metric=workload.metric, seed=self.seed)
            apply_nonlinear_history(repo, nonlinear_script(workload))
            repo.save_dir(path)
        return path

    def _history_copy(self, app: str, scale: float):
        workload = ALL_WORKLOADS[app](scale=scale, seed=self.seed)
        repo = MLCask.load_dir(self._history_dir(app, scale))
        workload.rebind(repo)
        return workload, repo

    def _round(self, ops: Ops, scale: float, label: str, apps=APPS) -> None:
        spent = {"linear": 0.0, "merge": 0.0, "merge_parallel": 0.0}
        for app in apps:
            workload = ALL_WORKLOADS[app](scale=scale, seed=self.seed)
            # The update schedule is the same for every seed (which stages
            # change in which iteration decides how much runs); the seed
            # shapes the data.
            steps = linear_script(workload, seed=0)
            repo = MLCask(metric=workload.metric, seed=self.seed)
            start = time.perf_counter()
            reports = [
                ops.commit(
                    "commit", repo.create_pipeline, workload.spec, workload.initial_components()
                )
            ]
            for step in steps[1:]:
                if step.expect_incompatible:
                    ops.call(
                        "commit_incompatible", repo.commit, workload.name, step.updates,
                        rejects=IncompatibleComponentsError,
                    )
                else:
                    reports.append(ops.commit("commit", repo.commit, workload.name, step.updates))
            spent["linear"] += time.perf_counter() - start
            # (logical, stored, dedup-hit) bytes: the linear repository's
            # whole store, plus what each merge adds to its copy of the history
            grown = [store_bytes(repo)]

            outcomes = {}
            for phase, kwargs in (
                ("merge", {}),
                ("merge_parallel", {"search": "prioritized", "workers": self.workers}),
            ):
                workload, fresh = self._history_copy(app, scale)
                loaded = store_bytes(fresh)
                start = time.perf_counter()
                outcome = ops.call(phase, fresh.merge, workload.name, "master", "dev", **kwargs)
                spent[phase] += time.perf_counter() - start
                self.failures.extend(merge_failures(fresh, outcome, f"{label} {app} {phase}"))
                outcomes[phase] = outcome
                grown.append(tuple(b - a for a, b in zip(loaded, store_bytes(fresh))))
            if outcomes["merge"].commit.score != outcomes["merge_parallel"].commit.score:
                self.failures.append(f"{label} {app}: merge and merge_parallel disagree on the winner")

            merges = outcomes.values()
            self.tally(
                stages_executed=sum(r.n_executed for r in reports)
                + sum(o.components_executed for o in merges),
                stages_reused=sum(r.n_reused for r in reports)
                + sum(o.components_reused for o in merges),
                candidates_total=sum(o.candidates_total for o in merges),
                candidates_evaluated=sum(o.candidates_evaluated for o in merges),
                ledger_records=len(repo.lineage),
                **dict(
                    zip(
                        ("logical_bytes", "stored_bytes", "dedup_hit_bytes"),
                        map(sum, zip(*grown)),
                    )
                ),
            )
        for phase, seconds in spent.items():
            self.phase_s[phase].append(seconds)
        ops.steps.append(sum(spent.values()))

    OPS_PER_ROUND = len(APPS) * 12  # create + 8 commits + incompatible + 2 merges

    def run(self) -> Ops:
        ops = self.new_ops()
        self.counts.clear()
        for samples in self.phase_s.values():
            samples.clear()
        for app in self.APPS:  # untimed preparation of the merge inputs
            self._history_dir(app, self.scale)
        start = time.perf_counter()
        try:
            for index in range(self.rounds):
                self._round(ops, self.scale, f"round {index}")
        except StepFailed:
            ops.abandon(self.rounds * self.OPS_PER_ROUND)
        self.wall_s = time.perf_counter() - start
        self.tally(steps=len(ops.steps))
        return ops

    def verify(self):
        pass  # every check of this workload runs beside the op it checks


WORKLOADS = {
    cls.name: cls for cls in (CollabCycle, ReadStorm, IngestBesideReads, LocalEvolveMerge)
}
