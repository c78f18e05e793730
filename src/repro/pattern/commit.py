"""Path reconstruction: turn DP argmin state back into routed geometry.

After the kernels fill a :class:`~repro.pattern.twopin.BatchState`,
:func:`reconstruct_table` descends every net of the batch at once,
level by level from the roots: a masked arg-min picks each two-pin
net's arrival layer inside its parent's via stack (first minimum wins)
and the winning pattern is read off the ``(N, L)`` argmin arrays.  Each
tree node then contributes one 3-D polyline — up its via stack, along
``Ps - Bs - Bt - Pt`` with a layer change at each bend — and a route is
the set of unit grid edges its polylines cover: the steps of the whole
batch are keyed, de-duplicated (sibling paths may share edges; a net
occupies an edge once), sorted and fused into maximal runs.  The runs
*are* a segment table (:mod:`repro.grid.route`): the batch commits it
with :func:`~repro.grid.route.commit_table` and
:func:`reconstruct_routes` builds its :class:`~repro.grid.route.Route`
objects, wires and vias in the order :func:`normalize_route` emits them.

:func:`normalize_route` does the same for one route built elsewhere
(the maze routers' paths).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.grid.route import Route, ViaSegment, WireSegment, routes_from_table
from repro.pattern.twopin import BatchState, NetRoutingJob
from repro.utils.arrays import unique_sorted

# A node's polyline as rows of (ends ++ chosen.T): xs ys xt yt | lo hi lt
# ls lb bsx bsy btx bty.  Eight (x, y, layer) points: the via stack lo-hi
# at Ps, then Ps-Bs on ls, Bs-Bt on lb, Bt-Pt on lt.  (hi back to ls lies
# inside the stack.)
_POLYLINE = np.array(
    [[0, 0, 0, 9, 9, 11, 11, 2], [1, 1, 1, 10, 10, 12, 12, 3], [4, 5, 7, 7, 8, 8, 6, 6]]
)
# Key weight of (x, y, layer) per step direction: horizontal wires sort
# by (layer, y, x), vertical ones by (layer, x, y), vias by (x, y, layer)
# — the running coordinate always last.
_ORDER = np.array([[0, 1, 2], [1, 0, 1], [2, 2, 0]])


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
    # Unit steps of every polyline segment, keyed (direction, net, the
    # two fixed coordinates, the running one).
    points = np.concatenate([state.ends[:, first:stop], chosen[first:stop].T])[_POLYLINE]
    delta = np.abs(points[:, 1:] - points[:, :-1])  # (3, 7, rows)
    length = delta.sum(axis=0)
    segment, row = np.nonzero(length)
    if not row.size:
        return np.empty((6, 0), dtype=np.intp)
    length = length[segment, row]
    direction = delta[:, segment, row].argmax(axis=0)
    start = np.minimum(points[:, 1:], points[:, :-1])[:, segment, row]
    radix = int(points.max()) + 2  # leaves a gap after a line's last step
    line = direction * n_jobs + (state.job[first + row] - state.job[first])
    key = line * radix**3 + (start * radix ** _ORDER[:, direction]).sum(axis=0)
    last = np.cumsum(length)
    step = np.arange(last[-1]) - np.repeat(last - length, length)
    units = unique_sorted(np.repeat(key, length) + step)

    # Fuse consecutive steps into runs and decode them: direction 0 is a
    # horizontal wire (layer, y, x), 1 a vertical one (layer, x, y), 2 a
    # via stack (x, y, layer) — the segment table's kinds and columns.
    breaks = np.flatnonzero(units[1:] - units[:-1] != 1) + 1
    starts = np.concatenate(([0], breaks))
    run = np.concatenate((breaks, [units.size])) - starts
    line, where = np.divmod(units[starts], radix**3)
    direction, net = np.divmod(line, n_jobs)
    where, c = np.divmod(where, radix)
    a, b = np.divmod(where, radix)
    return np.array([direction, net, a, b, c, c + run])


# ---------------------------------------------------------------------- #
# Normalisation
# ---------------------------------------------------------------------- #
def normalize_route(route: Route) -> Route:
    """Fuse overlapping geometry at unit-edge granularity.

    Sibling two-pin paths of a net may share grid edges (e.g. both run
    through the parent node); a net occupies each routing-graph edge
    once, so duplicates must collapse before demand is committed.
    """
    h_edges: Set[Tuple[int, int, int]] = set()  # (layer, x, y): (x,y)-(x+1,y)
    v_edges: Set[Tuple[int, int, int]] = set()  # (layer, x, y): (x,y)-(x,y+1)
    for wire in route.wires:
        if wire.is_horizontal:
            for x in range(wire.x1, wire.x2):
                h_edges.add((wire.layer, x, wire.y1))
        else:
            for y in range(wire.y1, wire.y2):
                v_edges.add((wire.layer, wire.x1, y))
    via_edges: Set[Tuple[int, int, int]] = set()  # (x, y, l): layer l - l+1
    for via in route.vias:
        for layer in range(via.lo, via.hi):
            via_edges.add((via.x, via.y, layer))

    result = Route()
    _merge_runs(
        sorted(h_edges, key=lambda e: (e[0], e[2], e[1])),
        key=lambda e: (e[0], e[2]),
        coord=lambda e: e[1],
        emit=lambda e, lo, hi: result.add_wire(
            WireSegment(e[0], lo, e[2], hi + 1, e[2])
        ),
    )
    _merge_runs(
        sorted(v_edges),
        key=lambda e: (e[0], e[1]),
        coord=lambda e: e[2],
        emit=lambda e, lo, hi: result.add_wire(
            WireSegment(e[0], e[1], lo, e[1], hi + 1)
        ),
    )
    _merge_runs(
        sorted(via_edges),
        key=lambda e: (e[0], e[1]),
        coord=lambda e: e[2],
        emit=lambda e, lo, hi: result.add_via(ViaSegment(e[0], e[1], lo, hi + 1)),
    )
    return result


def _merge_runs(items, key, coord, emit) -> None:
    """Group sorted unit elements by ``key`` and fuse consecutive runs."""
    run_start = None
    prev = None
    prev_item = None
    for item in items:
        if prev_item is not None and key(item) == key(prev_item) and coord(item) == prev + 1:
            prev = coord(item)
            prev_item = item
            continue
        if prev_item is not None:
            emit(prev_item, run_start, prev)
        run_start = coord(item)
        prev = coord(item)
        prev_item = item
    if prev_item is not None:
        emit(prev_item, run_start, prev)


__all__ = [
    "best_layer_in_interval",
    "reconstruct_route",
    "reconstruct_routes",
    "reconstruct_table",
    "normalize_route",
]
