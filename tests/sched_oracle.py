"""Scheduler oracles: the reference implementations the production
scheduler is checked against.

* :class:`ConflictGraph` — the conflict relation as one set of
  neighbours per task, built from single boxes by spatial binning
  (:func:`build_conflict_graph`, checked against brute force by
  ``tests/test_conflict.py``) or from multi-box footprints by brute
  force (:func:`footprint_conflicts`).
* :func:`greedy_round` / :func:`extract_conflict_batches` — Algorithm 1
  as rounds over that set relation, and :func:`orient` — the Fig. 6
  orientation around the first round.  :func:`oracle_schedule` chains
  them into what :meth:`~repro.sched.pipeline.StageRunner.schedule`
  must produce, with net-box index arrays, one bitset Algorithm 1 and
  a stage's grouping, for tasks with these multi-box footprints
  (``tests/test_pipeline.py``); :func:`task_graph_of` feeds an explicit
  relation through the production
  :func:`~repro.sched.taskgraph.build_task_graph`.
* :func:`critical_path_length` — the infinite-worker makespan, a lower
  bound on :func:`~repro.sched.executor.simulate_makespan`.
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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.grid.geometry import Rect
from repro.sched.taskgraph import TaskGraph, build_task_graph


class ConflictGraph:
    """Undirected conflict relation over task indices ``0..n-1``."""

    def __init__(self, n_tasks: int) -> None:
        self.n_tasks = n_tasks
        self._adjacency: List[Set[int]] = [set() for _ in range(n_tasks)]

    def add_conflict(self, a: int, b: int) -> None:
        """Mark tasks ``a`` and ``b`` as conflicting."""
        if a == b:
            raise ValueError("a task cannot conflict with itself")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    def conflicts_of(self, task: int) -> Set[int]:
        """Return the set of tasks conflicting with ``task``."""
        return self._adjacency[task]

    def are_conflicting(self, a: int, b: int) -> bool:
        """Return True when ``a`` and ``b`` conflict."""
        return b in self._adjacency[a]

    def n_conflicts(self) -> int:
        """Return the number of conflict edges."""
        return sum(len(adj) for adj in self._adjacency) // 2

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Yield each conflict edge once as ``(lo, hi)``."""
        for a in range(self.n_tasks):
            for b in self._adjacency[a]:
                if a < b:
                    yield (a, b)

    def is_independent_set(self, tasks: Sequence[int]) -> bool:
        """Return True when no two of ``tasks`` conflict."""
        chosen = set(tasks)
        return all(not (self._adjacency[t] & chosen) for t in chosen)


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


def footprint_conflicts(footprints: Sequence[Sequence[Rect]]) -> ConflictGraph:
    """Brute force over multi-box footprints: two tasks conflict when a
    box of one overlaps a box of the other."""
    graph = ConflictGraph(len(footprints))
    for a, boxes_a in enumerate(footprints):
        for b in range(a + 1, len(footprints)):
            if any(x.overlaps(y) for x in boxes_a for y in footprints[b]):
                graph.add_conflict(a, b)
    return graph


def greedy_round(
    conflicts: ConflictGraph, tasks: Iterable[int]
) -> Tuple[List[int], List[int]]:
    """One round of Algorithm 1: scan ``tasks`` in order and take each
    one that conflicts with none taken so far.  Returns the batch (a
    maximal independent set of ``tasks``) and the tasks left over."""
    batch: List[int] = []
    leftovers: List[int] = []
    blocked: Set[int] = set()
    for task in tasks:
        if task in blocked:
            leftovers.append(task)
        else:
            batch.append(task)
            blocked.update(conflicts.conflicts_of(task))
    return batch, leftovers


def extract_conflict_batches(conflicts: ConflictGraph) -> List[List[int]]:
    """Greedy maximal conflict-free batches over an explicit conflict
    graph: round after round over the tasks still left, in task-ID
    order."""
    remaining: List[int] = list(range(conflicts.n_tasks))
    batches: List[List[int]] = []
    while remaining:
        batch, remaining = greedy_round(conflicts, remaining)
        batches.append(batch)
    return batches


def orient(conflicts: ConflictGraph) -> TaskGraph:
    """The Fig. 6 DAG: root batch = the first greedy round; every edge
    runs root -> non-root, else smaller task ID -> larger."""
    root, _ = greedy_round(conflicts, range(conflicts.n_tasks))
    in_root = set(root)
    n = conflicts.n_tasks
    successors: List[List[int]] = [[] for _ in range(n)]
    n_predecessors = [0] * n
    for a, b in conflicts.edges():
        if a in in_root and b in in_root:
            raise AssertionError("root batch is not independent")
        if a in in_root:
            source, sink = a, b
        elif b in in_root:
            source, sink = b, a
        else:
            source, sink = (a, b) if a < b else (b, a)
        successors[source].append(sink)
        n_predecessors[sink] += 1
    return TaskGraph(n, root, successors, n_predecessors)


def oracle_schedule(footprints: Sequence[Sequence[Rect]]):
    """``(conflicts, task_graph, batches)`` of ``footprints`` computed
    from the set relation alone."""
    conflicts = footprint_conflicts(footprints)
    return conflicts, orient(conflicts), extract_conflict_batches(conflicts)


def task_graph_of(conflicts: ConflictGraph) -> TaskGraph:
    """The production :func:`build_task_graph` on an explicit relation,
    rooted at its first greedy round."""
    root, _ = greedy_round(conflicts, range(conflicts.n_tasks))
    edges = np.array(sorted(conflicts.edges()), dtype=np.int64).reshape(-1, 2)
    return build_task_graph(conflicts.n_tasks, root, edges[:, 0], edges[:, 1])


def critical_path_length(graph: TaskGraph, durations: Sequence[float]) -> float:
    """Return the longest duration-weighted path of ``graph`` (the
    infinite-worker makespan lower bound)."""
    predecessors: List[List[int]] = [[] for _ in range(graph.n_tasks)]
    for source in range(graph.n_tasks):
        for succ in graph.successors[source]:
            predecessors[succ].append(source)
    finish = [0.0] * graph.n_tasks
    for task in graph.topological_order():
        finish[task] = durations[task] + max(
            (finish[p] for p in predecessors[task]), default=0.0
        )
    return max(finish, default=0.0)


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
