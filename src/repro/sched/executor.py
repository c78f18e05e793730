"""Modelled parallel execution of the ordered task graph.

The paper drains its task graph on Taskflow threads [30];
:class:`~repro.sched.pipeline.StageRunner` drains it on one thread
(DESIGN.md Sec. 2.1).  :func:`simulate_makespan` /
:func:`simulate_batch_barrier_makespan` compute the deterministic
parallel makespans of the recorded per-task durations under list
scheduling with ``n_workers`` — the quantity the paper's scheduler
speedups (2.070x / 2.501x, Table VIII) measure, substituted per
DESIGN.md Sec. 2.  The threaded pool that states the release rule
itself is a test oracle (``tests/sched_oracle.py``).
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

from repro.sched.taskgraph import TaskGraph


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
    "simulate_makespan",
    "simulate_batch_barrier_makespan",
]
