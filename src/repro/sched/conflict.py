"""The task conflict graph.

Two routing tasks conflict when their bounding boxes overlap — they may
demand the same grid edges, so they must not run concurrently with
frozen costs (Sec. III-B).  :func:`~repro.sched.pipeline.group_conflicts`
builds the graph by spatial binning, which keeps construction
near-linear in practice for the strongly local nets real designs
contain.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple


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

    def add_conflicts_bulk(self, a, b) -> None:
        """Add many edges at once from parallel index arrays.

        ``a`` and ``b`` are equal-length numpy integer arrays; pair
        ``(a[i], b[i])`` becomes an edge.  Duplicates (in either
        orientation, or against existing edges) collapse; self-pairs
        raise like :meth:`add_conflict`.
        """
        import numpy as np

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.size == 0:
            return
        if bool(np.any(a == b)):
            raise ValueError("a task cannot conflict with itself")
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order]
        starts = np.searchsorted(src, np.arange(self.n_tasks + 1))
        adjacency = self._adjacency
        for node in range(self.n_tasks):
            lo, hi = starts[node], starts[node + 1]
            if lo != hi:
                adjacency[node].update(dst[lo:hi].tolist())

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


__all__ = ["ConflictGraph"]
