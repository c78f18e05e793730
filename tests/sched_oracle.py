"""Scheduler oracles: the reference implementations the production
scheduler is checked against.

* :func:`build_conflict_graph` — the conflict graph of single boxes by
  spatial binning, the special case of
  :func:`~repro.sched.pipeline.group_conflicts` (one box per task) that
  ``tests/test_conflict.py`` checks against brute force.
* :class:`TaskGraphExecutor` — the paper drains its ordered task graph
  on Taskflow threads, releasing each task the moment its predecessors
  finish; this is that release rule as a Python thread pool.  No
  routing path runs it: under CPython's GIL the threaded drain lost to
  the one-thread :class:`~repro.sched.pipeline.StageRunner` (DESIGN.md
  Sec. 2.1).  ``tests/test_executor.py`` checks that no conflicting
  pair ever overlaps and that a task's commit precedes its successors;
  ``tests/test_pipeline.py`` checks that the runner's commit order is
  this pool's start order at one worker.
"""

from __future__ import annotations

import heapq
import threading
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.grid.geometry import Rect
from repro.sched.conflict import ConflictGraph
from repro.sched.taskgraph import TaskGraph


def build_conflict_graph(
    boxes: Sequence[Rect], bin_size: int = 16
) -> ConflictGraph:
    """Build the conflict graph of bounding boxes via spatial binning.

    Each box registers in every ``bin_size``-sized cell it touches; only
    boxes sharing a cell are overlap-tested.  The result is exact (all
    and only overlapping pairs become edges).
    """
    if bin_size < 1:
        raise ValueError("bin_size must be >= 1")
    graph = ConflictGraph(len(boxes))
    bins: Dict[Tuple[int, int], List[int]] = {}
    for index, box in enumerate(boxes):
        for bx in range(box.xlo // bin_size, box.xhi // bin_size + 1):
            for by in range(box.ylo // bin_size, box.yhi // bin_size + 1):
                bins.setdefault((bx, by), []).append(index)
    seen: Set[Tuple[int, int]] = set()
    for members in bins.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                key = (a, b) if a < b else (b, a)
                if key in seen:
                    continue
                seen.add(key)
                if boxes[a].overlaps(boxes[b]):
                    graph.add_conflict(a, b)
    return graph


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
