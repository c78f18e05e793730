"""Path reconstruction: turn DP argmin state back into routed geometry.

After the kernels fill a :class:`~repro.pattern.twopin.BatchState`,
:func:`reconstruct_table` descends every net of the batch at once,
level by level from the roots: a masked arg-min picks each two-pin
net's arrival layer inside its parent's via stack (first minimum wins)
and the winning pattern is read off the ``(N, L)`` argmin arrays.  Each
tree node then contributes one 3-D polyline — up its via stack, along
``Ps - Bs - Bt - Pt`` with a layer change at each bend — and a route is
the set of unit grid edges its polylines cover.  The polyline segments
of the whole batch go to :func:`~repro.grid.route.normalize_table`,
which de-duplicates their unit edges (sibling paths may share edges; a
net occupies an edge once) and fuses them into maximal runs: a segment
table (:mod:`repro.grid.route`).  The batch commits it with
:func:`~repro.grid.route.commit_table`, and :func:`reconstruct_routes`
builds its :class:`~repro.grid.route.Route` objects.

:func:`normalize_route` puts one route built elsewhere through the same
step; its order is the table's.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.grid.route import Route, normalize_table, routes_from_table
from repro.pattern.twopin import BatchState, NetRoutingJob

# A node's polyline as rows of (ends ++ chosen.T): xs ys xt yt | lo hi lt
# ls lb bsx bsy btx bty.  Eight (x, y, layer) points: the via stack lo-hi
# at Ps, then Ps-Bs on ls, Bs-Bt on lb, Bt-Pt on lt.  (hi back to ls lies
# inside the stack.)
_POLYLINE = np.array(
    [[0, 0, 0, 9, 9, 11, 11, 2], [1, 1, 1, 10, 10, 12, 12, 3], [4, 5, 7, 7, 8, 8, 6, 6]]
)
# The segment-table columns (a, b, lo) of a step along x, y and the
# layer, as rows of its (x, y, layer) lower end.
_AXES = np.array([[2, 1, 0], [2, 0, 1], [0, 1, 2]])


def best_layer_in_interval(vector: np.ndarray, lo: int, hi: int) -> int:
    """Return the argmin layer of ``vector`` restricted to ``[lo, hi]``."""
    if lo > hi:
        raise ValueError("empty layer interval")
    return lo + int(np.argmin(vector[lo : hi + 1]))


def reconstruct_route(job: NetRoutingJob) -> Route:
    """Rebuild the routed geometry of one completed job (normalised)."""
    return reconstruct_routes(job.state, job)[0]


def reconstruct_routes(
    state: BatchState, job: Optional[NetRoutingJob] = None
) -> List[Route]:
    """Rebuild the normalised routes of a batch (or of one ``job`` of it).

    Returns one route per net, in net order.
    """
    return routes_from_table(reconstruct_table(state, job), state.n_jobs if job is None else 1)


def reconstruct_table(state: BatchState, job: Optional[NetRoutingJob] = None) -> np.ndarray:
    """The segment table of a batch's routes (or of one ``job``'s, as
    route 0), sorted by ``(kind, route, a, b, lo)``."""
    chosen = state.chosen
    layers = np.arange(state.values.shape[1])

    # Descent: each two-pin net arrives on its cheapest layer inside the
    # via stack chosen at its parent node.
    for nodes in state.levels:
        stack = chosen[state.parent[nodes], :2]
        inside = (layers >= stack[:, :1]) & (layers <= stack[:, 1:])
        lt = np.where(inside, state.values[nodes], np.inf).argmin(axis=1)
        picked = state.path[nodes, lt]
        chosen[nodes] = np.concatenate(
            [state.stack[nodes, picked[:, 0]], lt[:, None], picked], axis=1
        )

    first, stop, n_jobs = 0, state.parent.size, state.n_jobs
    if job is not None:
        first, stop, n_jobs = job.row0, job.row0 + job.tree.n_nodes, 1
    # Every polyline segment is a run of unit steps; runs overlap where
    # sibling paths share edges (a net occupies an edge once).
    points = np.concatenate([state.ends[:, first:stop], chosen[first:stop].T])[_POLYLINE]
    delta = np.abs(points[:, 1:] - points[:, :-1])  # (3, 7, rows)
    length = delta.sum(axis=0)
    segment, row = np.nonzero(length)
    if not row.size:
        return np.empty((6, 0), dtype=np.intp)
    kind = delta[:, segment, row].argmax(axis=0)  # the segment-table kinds
    start = np.minimum(points[:, 1:], points[:, :-1])[:, segment, row]
    a, b, lo = start[_AXES[kind].T, np.arange(kind.size)]
    net = state.job[first + row] - state.job[first]
    return normalize_table(np.array([kind, net, a, b, lo, lo + length[segment, row]]), n_jobs)


def normalize_route(route: Route) -> Route:
    """Fuse overlapping geometry at unit-edge granularity.

    Sibling two-pin paths of a net may share grid edges (e.g. both run
    through the parent node); a net occupies each routing-graph edge
    once, so duplicates must collapse before demand is committed.  The
    result lists each unit edge once, in maximal runs, in
    :func:`~repro.grid.route.normalize_table` order.
    """
    table = route.table()
    if table.size and table[2:].min() < 0:
        raise ValueError(f"negative coordinate in {route!r}")
    return routes_from_table(normalize_table(table, 1), 1)[0]


__all__ = [
    "best_layer_in_interval",
    "reconstruct_route",
    "reconstruct_routes",
    "reconstruct_table",
    "normalize_route",
]
