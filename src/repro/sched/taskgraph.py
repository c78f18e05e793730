"""Ordered task graph construction (Sec. III-B, Fig. 6).

The scheduler turns the undirected conflict graph into a DAG:

1. extract a *root task batch* — a maximal independent set: round one
   of Algorithm 1's greedy scan (:func:`extract_conflict_batches`) on
   the conflict graph;
2. orient every conflict edge: root-task -> non-root-task; between two
   non-root tasks, smaller task ID -> larger (IDs encode the sorting
   result, so the orientation respects the Internet ordering).

The result is acyclic by construction: all edges either leave the root
batch or increase the task ID.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set, Tuple

from repro.sched.conflict import ConflictGraph


@dataclass
class TaskGraph:
    """A DAG of routing tasks.

    ``successors[i]`` lists tasks that must wait for ``i``;
    ``n_predecessors[i]`` counts tasks ``i`` waits for.
    """

    n_tasks: int
    root_batch: List[int]
    successors: List[List[int]] = field(default_factory=list)
    n_predecessors: List[int] = field(default_factory=list)

    def topological_order(self) -> List[int]:
        """Return a valid execution order (Kahn; ready tasks by ID)."""
        import heapq

        indegree = list(self.n_predecessors)
        ready = [t for t in range(self.n_tasks) if indegree[t] == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            task = heapq.heappop(ready)
            order.append(task)
            for succ in self.successors[task]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != self.n_tasks:
            raise ValueError("task graph contains a cycle")
        return order

    def levels(self) -> List[List[int]]:
        """Return tasks grouped by dependency depth, task-ID order inside.

        ``levels()[k]`` holds the tasks whose longest predecessor chain
        has ``k`` edges.  Two conflicting tasks always share an edge, so
        they land on *different* levels — every level is conflict-free.
        And because every edge strictly increases depth, executing the
        levels in order (any order inside a level) is a linear extension
        of the DAG, i.e. it commits conflicting tasks in exactly the
        order the per-task :meth:`topological_order` drain would.  This
        is the dispatch unit of the batched maze engine: one stacked
        relaxation per level.

        Note the greedy Algorithm-1 batches do **not** have the second
        property (a non-root task can be batched *before* a larger-ID
        task it must follow), which is why batch dispatch rides levels
        rather than the extraction batches.
        """
        depth = [0] * self.n_tasks
        for task in self.topological_order():
            for succ in self.successors[task]:
                if depth[task] + 1 > depth[succ]:
                    depth[succ] = depth[task] + 1
        if self.n_tasks == 0:
            return []
        groups: List[List[int]] = [[] for _ in range(max(depth) + 1)]
        for task in range(self.n_tasks):
            groups[depth[task]].append(task)
        return groups

    def critical_path_length(self, durations: List[float]) -> float:
        """Return the longest duration-weighted path (infinite-worker
        makespan lower bound)."""
        finish = [0.0] * self.n_tasks
        for task in self.topological_order():
            finish[task] = durations[task] + max(
                (finish[p] for p in self._predecessors_of(task)), default=0.0
            )
        return max(finish, default=0.0)

    def _predecessors_of(self, task: int) -> List[int]:
        # Successor lists are the primary representation; invert lazily.
        if not hasattr(self, "_pred_cache"):
            preds: List[List[int]] = [[] for _ in range(self.n_tasks)]
            for source in range(self.n_tasks):
                for succ in self.successors[source]:
                    preds[succ].append(source)
            self._pred_cache = preds
        return self._pred_cache[task]


def _greedy_round(
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
    graph (Algorithm 1 — the barrier baseline's partition): round after
    round over the tasks still left, in task-ID order."""
    remaining: List[int] = list(range(conflicts.n_tasks))
    batches: List[List[int]] = []
    while remaining:
        batch, remaining = _greedy_round(conflicts, remaining)
        batches.append(batch)
    return batches


def build_task_graph(conflicts: ConflictGraph) -> TaskGraph:
    """Orient the conflict graph into the scheduler's DAG (Fig. 6)."""
    root, _ = _greedy_round(conflicts, range(conflicts.n_tasks))
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


__all__ = ["TaskGraph", "extract_conflict_batches", "build_task_graph"]
