"""Taskflow-like execution of the ordered task graph.

Two complementary executors:

* :class:`TaskGraphExecutor` actually runs Python callables with a
  thread pool, releasing each task the moment its predecessors finish —
  the execution-order semantics of Taskflow [30].  No routing path
  calls it: under CPython's GIL the threaded drain lost to the
  one-thread :class:`~repro.sched.pipeline.StageRunner` (DESIGN.md
  Sec. 2.1), so it stays as the executable statement of the paper's
  release rule — ``tests/test_executor.py`` verifies that no
  conflicting pair ever overlaps and that a task's commit precedes its
  successors.
* :func:`simulate_makespan` / :func:`simulate_batch_barrier_makespan`
  compute the deterministic parallel makespans of recorded per-task
  durations under list scheduling with ``n_workers`` — the quantity the
  paper's scheduler speedups (2.070x / 2.501x, Table VIII) measure,
  substituted per DESIGN.md Sec. 2.
"""

from __future__ import annotations

import heapq
import threading
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sched.taskgraph import TaskGraph


class TaskGraphExecutor:
    """Runs tasks respecting DAG precedence with a bounded worker pool.

    ``on_complete`` (when given) is invoked under the executor lock
    *before* any successor of the task can start: state it commits is
    visible to every dependent task.  ``events`` (when given) receives
    ``("start", task)`` / ``("finish", task)`` tuples appended under the
    same lock, so list positions are a consistent global tick ordering —
    two tasks overlapped iff each started before the other finished.
    """

    def __init__(self, n_workers: int = 4) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers

    def run(
        self,
        graph: TaskGraph,
        task_fn: Callable[[int], None],
        on_complete: Optional[Callable[[int], None]] = None,
        events: Optional[List[Tuple[str, int]]] = None,
    ) -> List[int]:
        """Execute ``task_fn(task_id)`` for every task; return start order."""
        indegree = list(graph.n_predecessors)
        ready: List[int] = [t for t in range(graph.n_tasks) if indegree[t] == 0]
        heapq.heapify(ready)
        lock = threading.Lock()
        done = threading.Condition(lock)
        started: List[int] = []
        running = [0]
        finished = [0]
        stalled = [False]
        errors: List[BaseException] = []

        def worker() -> None:
            while True:
                with done:
                    while True:
                        if errors or stalled[0]:
                            done.notify_all()
                            return
                        if ready:
                            break
                        if finished[0] >= graph.n_tasks:
                            done.notify_all()
                            return
                        if running[0] == 0:
                            # Nothing ready, nothing running, tasks left:
                            # every remaining task waits on a cycle.
                            stalled[0] = True
                            done.notify_all()
                            return
                        done.wait()
                    task = heapq.heappop(ready)
                    started.append(task)
                    if events is not None:
                        events.append(("start", task))
                    running[0] += 1
                try:
                    task_fn(task)
                except BaseException as exc:  # propagate to caller
                    with done:
                        errors.append(exc)
                        done.notify_all()
                    return
                with done:
                    running[0] -= 1
                    finished[0] += 1
                    for succ in graph.successors[task]:
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            heapq.heappush(ready, succ)
                    if on_complete is not None:
                        try:
                            on_complete(task)
                        except BaseException as exc:
                            # Successors were pushed but cannot be popped:
                            # the error is recorded in the same critical
                            # section, so waking workers exit instead.
                            errors.append(exc)
                    if events is not None:
                        events.append(("finish", task))
                    done.notify_all()

        threads = [
            threading.Thread(target=worker, name=f"taskgraph-{i}")
            for i in range(min(self.n_workers, max(1, graph.n_tasks)))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        if stalled[0] or len(started) != graph.n_tasks:
            raise RuntimeError("executor deadlocked (cyclic task graph?)")
        return started


def simulate_makespan(
    graph: TaskGraph, durations: Sequence[float], n_workers: int
) -> float:
    """List-scheduling makespan of the DAG on ``n_workers`` workers.

    Ready tasks are dispatched in task-ID order (the scheduler's
    Internet ordering); this is the deterministic runtime a Taskflow
    pool converges to for these dependency structures.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    if graph.n_tasks == 0:
        return 0.0
    indegree = list(graph.n_predecessors)
    ready = [t for t in range(graph.n_tasks) if indegree[t] == 0]
    heapq.heapify(ready)
    # Event queue of (finish_time, task). Workers are interchangeable;
    # track only the number busy and the earliest completions.
    events: List[tuple] = []
    busy = 0
    now = 0.0
    completed = 0
    while completed < graph.n_tasks:
        while ready and busy < n_workers:
            task = heapq.heappop(ready)
            busy += 1
            heapq.heappush(events, (now + float(durations[task]), task))
        if not events:
            raise ValueError("task graph contains a cycle")
        now, task = heapq.heappop(events)
        busy -= 1
        completed += 1
        for succ in graph.successors[task]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    return now


def simulate_batch_barrier_makespan(
    batches: Sequence[Sequence[int]],
    durations: Sequence[float],
    n_workers: int,
) -> float:
    """Makespan of the widely-adopted batch-parallel baseline.

    Tasks inside a batch run concurrently on ``n_workers`` workers
    (longest-processing-time list scheduling); a barrier separates
    batches — the strategy the paper's scheduler is compared against.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    total = 0.0
    for batch in batches:
        finish = [0.0] * n_workers
        for task in sorted(batch, key=lambda t: -float(durations[t])):
            earliest = min(range(n_workers), key=lambda w: finish[w])
            finish[earliest] += float(durations[task])
        total += max(finish) if batch else 0.0
    return total


__all__ = [
    "TaskGraphExecutor",
    "simulate_makespan",
    "simulate_batch_barrier_makespan",
]
