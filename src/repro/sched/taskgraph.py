"""Ordered task graph construction (Sec. III-B, Fig. 6).

The scheduler turns the undirected task conflict relation into a DAG:

1. take a *root task batch* — a maximal independent set: the tasks of
   the first batch of Algorithm 1
   (:func:`~repro.sched.batching.extract_batches`, run over the net
   boxes);
2. orient every conflict edge: root-task -> non-root-task; between two
   non-root tasks, smaller task ID -> larger (IDs encode the sorting
   result, so the orientation respects the Internet ordering).

The result is acyclic by construction: all edges either leave the root
batch or increase the task ID.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np


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


def build_task_graph(
    n_tasks: int, root: Sequence[int], a: np.ndarray, b: np.ndarray
) -> TaskGraph:
    """Orient the conflict edges ``(a[i], b[i])``, ``a < b``, into the
    scheduler's DAG (Fig. 6) around the independent ``root`` batch.

    Successor lists come out in ascending task order.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    in_root = np.zeros(n_tasks, dtype=bool)
    in_root[list(root)] = True
    if bool(np.any(in_root[a] & in_root[b])):
        raise AssertionError("root batch is not independent")
    # ``a < b``, so the edge runs a -> b unless b is a root task.
    flip = in_root[b]
    source = np.where(flip, b, a)
    sink = np.where(flip, a, b)
    order = np.lexsort((sink, source))
    source, sink = source[order], sink[order]
    bounds = np.searchsorted(source, np.arange(n_tasks + 1)).tolist()
    sinks = sink.tolist()
    return TaskGraph(
        n_tasks,
        list(root),
        [sinks[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
        np.bincount(sink, minlength=n_tasks).tolist(),
    )


__all__ = ["TaskGraph", "build_task_graph"]
