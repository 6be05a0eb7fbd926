"""DAG scheduler: independent stages run concurrently.

The sequential :class:`~repro.core.executor.Executor` walks a pipeline's
topological order one stage at a time. For a DAG-shaped spec (one dataset
feeding independent feature branches that join at the model) this
scheduler keeps up to ``workers`` ready tasks in flight on a
:class:`~concurrent.futures.ThreadPoolExecutor`. The calling thread owns
all scheduling state: it submits ready tasks in topological order, waits
for the first to complete, settles it, and submits what that enabled.

Failure policy mirrors the sequential executor's ``break``: nothing
at-or-after the earliest failed topological index is started (tasks
strictly earlier still run — they cannot depend on the failure, and
completing them keeps the earliest-failure choice deterministic; see
:mod:`repro.engine.executor`), and what was never started is cancelled.

The scheduler is deliberately generic — tasks are opaque names with a
fixed topological index — so tests can drive it with scripted tasks and
the executor stays the only place that knows what a "stage" is.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

#: Task terminal states.
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


@dataclass
class DagResult:
    """What happened to every task of one :meth:`DagScheduler.run`."""

    status: dict[str, str] = field(default_factory=dict)
    #: Execution trace as (worker thread, task) in completion order.
    trace: list[tuple[int, str]] = field(default_factory=list)

    @property
    def failed(self) -> list[str]:
        return [t for t, s in self.status.items() if s == FAILED]

    @property
    def cancelled(self) -> list[str]:
        return [t for t, s in self.status.items() if s == CANCELLED]


class DagScheduler:
    """Executes one task DAG; construct per run.

    ``order`` is the full task list in topological order; ``deps`` maps a
    task to the tasks it consumes. ``execute(task) -> bool`` runs one task
    on a pool thread and returns success; it must contain its own
    failures (an escaping exception stops further submissions and
    re-raises on the caller's thread once in-flight tasks have finished).
    """

    def __init__(self, order: list[str], deps: dict[str, list[str]], workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.order = list(order)
        self.index = {task: i for i, task in enumerate(self.order)}
        self.deps = {task: list(deps.get(task, ())) for task in self.order}
        self.workers = min(workers, max(1, len(self.order)))

    def run(self, execute) -> DagResult:
        result = DagResult()
        status = result.status
        waiting = list(self.order)  # not yet submitted, topological order
        bar = len(self.order)  # earliest failed topological index
        running: dict = {}  # future -> task

        def on_worker(task):
            return execute(task), threading.get_ident()

        with ThreadPoolExecutor(self.workers, thread_name_prefix="repro-dag") as pool:
            while True:
                for task in list(waiting):
                    if len(running) == self.workers or self.index[task] >= bar:
                        break
                    if all(status.get(dep) == DONE for dep in self.deps[task]):
                        waiting.remove(task)
                        running[pool.submit(on_worker, task)] = task
                if not running:
                    break
                for future in wait(running, return_when=FIRST_COMPLETED).done:
                    task = running.pop(future)
                    # An escaping exception re-raises here; leaving the
                    # ``with`` waits for the tasks still in flight.
                    success, worker = future.result()
                    result.trace.append((worker, task))
                    status[task] = DONE if success else FAILED
                    if not success:
                        bar = min(bar, self.index[task])
        for task in waiting:
            status[task] = CANCELLED
        return result
