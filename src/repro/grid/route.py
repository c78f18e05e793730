"""Routed-net geometry: wire segments, via stacks, and whole-net routes.

A :class:`Route` is the output of pattern routing or maze routing for one
net: a set of straight wire segments plus via stacks.  Routes know how to
commit/uncommit their demand on a :class:`~repro.grid.graph.GridGraph`
(rip-up is ``uncommit``) and how to report wirelength and via counts for
the quality score (Eq. 15).  Each route caches where its edges sit in
the graph's flat demand buffer: :func:`commit_routes` commits a whole
batch with one scatter at those positions, and the rip-up scan reads
overflow at the same ones.

This module is the one place that knows how route geometry maps to unit
grid edges.  Routes built as arrays travel as a *segment table*:
``(6, S)`` ints, one column per segment — ``kind``, ``route``, ``a``,
``b``, ``lo``, ``hi``.  Kind :data:`H_WIRE` is a horizontal wire on
layer ``a`` along row ``y = b`` from ``x = lo`` to ``x = hi``;
:data:`V_WIRE` a vertical wire on layer ``a`` along column ``x = b``
from ``y = lo`` to ``y = hi``; :data:`VIA` a via stack at ``(a, b)``
from layer ``lo`` to layer ``hi``.  Every row is axis-aligned by layout.

:func:`normalize_table` is the one step from raw rows (overlapping,
repeated, in any order) to normal form — each unit edge once, in
maximal runs, sorted — for the pattern backtrace and
:func:`~repro.pattern.commit.normalize_route`; the maze paths
(:func:`routes_from_paths`), whose every step is already one unit
edge, key their steps the same way and share its run-fusing tail.
:func:`demand_positions` is the one map from rows to flat demand-buffer
positions (:func:`edges_at` inverts it): :func:`commit_table` fills
every route's index with it as it builds, and
:meth:`Route._demand_index` for a route built by hand.
:func:`step_layout` is the same map per node and step direction,
built once per grid layout, and the one record of which steps have an
edge: :func:`routes_from_paths` reads a path step's position off it,
and :meth:`~repro.grid.cost.CostModel.window_planes` gathers a maze
window's demand and capacity through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, List, NamedTuple, NoReturn, Optional, Sequence, Set, Tuple

import numpy as np

from repro.grid.graph import GridGraph
from repro.utils.arrays import ranges
from repro.utils.unionfind import UnionFind

GridNode = Tuple[int, int, int]  # (x, y, layer)

#: Segment-table kinds (see the module docstring).
H_WIRE, V_WIRE, VIA = 0, 1, 2


@dataclass(frozen=True)
class WireSegment:
    """A straight wire on one layer between two G-cells (inclusive).

    Normalised so that ``(x1, y1) <= (x2, y2)`` lexicographically; exactly
    one of the coordinates may differ (axis-aligned), and zero-length
    segments are rejected (a single G-cell needs no wire).
    """

    layer: int
    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 != self.x2 and self.y1 != self.y2:
            raise ValueError(f"wire segment not axis-aligned: {self}")
        if (self.x1, self.y1) == (self.x2, self.y2):
            raise ValueError("zero-length wire segment")
        if (self.x1, self.y1) > (self.x2, self.y2):
            x1, y1, x2, y2 = self.x2, self.y2, self.x1, self.y1
            object.__setattr__(self, "x1", x1)
            object.__setattr__(self, "y1", y1)
            object.__setattr__(self, "x2", x2)
            object.__setattr__(self, "y2", y2)

    @property
    def is_horizontal(self) -> bool:
        """Return True for an x-direction segment."""
        return self.y1 == self.y2

    @property
    def length(self) -> int:
        """Wirelength in G-cell pitches."""
        return (self.x2 - self.x1) + (self.y2 - self.y1)

    def nodes(self) -> Iterable[GridNode]:
        """Yield every 3-D grid node the segment covers."""
        if self.is_horizontal:
            for x in range(self.x1, self.x2 + 1):
                yield (x, self.y1, self.layer)
        else:
            for y in range(self.y1, self.y2 + 1):
                yield (self.x1, y, self.layer)


@dataclass(frozen=True)
class ViaSegment:
    """A via stack at ``(x, y)`` spanning layers ``lo``..``hi`` inclusive."""

    x: int
    y: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            lo, hi = self.hi, self.lo
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        if self.lo == self.hi:
            raise ValueError("zero-height via stack")

    @property
    def n_vias(self) -> int:
        """Number of single-layer via cuts in the stack."""
        return self.hi - self.lo

    def nodes(self) -> Iterable[GridNode]:
        """Yield every 3-D grid node the stack covers."""
        for layer in range(self.lo, self.hi + 1):
            yield (self.x, self.y, layer)


class Route:
    """The routed geometry of one net."""

    def __init__(
        self,
        wires: Sequence[WireSegment] = (),
        vias: Sequence[ViaSegment] = (),
    ) -> None:
        self.wires: List[WireSegment] = list(wires)
        self.vias: List[ViaSegment] = list(vias)
        # The demand index and its key (see _demand_index).
        self._index: Optional[np.ndarray] = None
        self._index_on: Optional[np.ndarray] = None
        self._index_segments = 0

    @property
    def wirelength(self) -> int:
        """Total wirelength in G-cell pitches."""
        return sum(w.length for w in self.wires)

    @property
    def n_vias(self) -> int:
        """Total number of via cuts."""
        return sum(v.n_vias for v in self.vias)

    def is_empty(self) -> bool:
        """Return True when the route has no geometry at all."""
        return not self.wires and not self.vias

    # ------------------------------------------------------------------ #
    # Demand bookkeeping
    # ------------------------------------------------------------------ #
    def commit(self, graph: GridGraph, amount: float = 1.0) -> None:
        """Add this route's demand to ``graph`` (negative = rip-up); the
        one-route case of :func:`commit_routes`."""
        commit_routes(graph, (self,), amount)

    def uncommit(self, graph: GridGraph, amount: float = 1.0) -> None:
        """Remove this route's demand from ``graph`` (rip-up)."""
        self.commit(graph, -amount)

    def _demand_index(self, graph: GridGraph) -> np.ndarray:
        """The positions of this route's edges in ``graph``'s flat
        demand buffer (``graph.demand_flat``), one per edge use.

        Validated on first use and cached: a route's geometry does not
        change once built (the segment count is part of the key, so an
        appended segment refreshes it).  Every committed route keeps one,
        in plain attributes (the graph's via-demand array, created with
        the graph and never replaced, stands for the graph), so filling
        it allocates nothing the cyclic garbage collector tracks.
        """
        if (
            self._index_on is graph.via_demand
            and self._index_segments == len(self.wires) + len(self.vias)
        ):
            return self._index
        _index_routes(graph, self.table(), (self,))
        return self._index

    def table(self) -> np.ndarray:
        """This route's segment table, as route 0: its wires, then its
        vias, in the route's own order."""
        rows = [
            (H_WIRE, 0, w.layer, w.y1, w.x1, w.x2)
            if w.y1 == w.y2
            else (V_WIRE, 0, w.layer, w.x1, w.y1, w.y2)
            for w in self.wires
        ]
        rows += [(VIA, 0, v.x, v.y, v.lo, v.hi) for v in self.vias]
        return np.array(rows, dtype=np.intp).reshape(-1, 6).T

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #
    def nodes(self) -> Set[GridNode]:
        """Return the set of all 3-D grid nodes the route covers."""
        covered: Set[GridNode] = set()
        for w in self.wires:
            covered.update(w.nodes())
        for v in self.vias:
            covered.update(v.nodes())
        return covered

    def connects(self, pins: Sequence[GridNode]) -> bool:
        """Return True when the route forms one connected component
        containing every pin.

        This is the correctness invariant every router must satisfy; the
        property-based tests exercise it on random nets.  A net whose
        distinct pins collapse to a single grid node is trivially
        connected (no geometry required).
        """
        distinct = set(pins)
        if len(distinct) <= 1:
            return True
        covered = self.nodes()
        for pin in distinct:
            if pin not in covered:
                return False
        uf = UnionFind(covered)
        for x, y, layer in covered:
            for nbr in ((x + 1, y, layer), (x, y + 1, layer), (x, y, layer + 1)):
                if nbr in covered:
                    uf.union((x, y, layer), nbr)
        root = uf.find(pins[0])
        return all(uf.find(pin) == root for pin in pins[1:])

    def __repr__(self) -> str:
        return (
            f"Route(wl={self.wirelength}, vias={self.n_vias}, "
            f"{len(self.wires)} wires, {len(self.vias)} stacks)"
        )


def commit_routes(
    graph: GridGraph, routes: Sequence[Route], amount: float = 1.0
) -> None:
    """Add the demand of all ``routes`` to ``graph`` (negative = rip-up).

    Every wire and via is validated as :meth:`GridGraph.add_wire_demand`
    / :meth:`~GridGraph.add_via_demand` do before anything is written;
    then one ``np.add.at`` writes the flat demand buffer (demands are
    small integers, so the sums are exact in any order).
    """
    indexes = [route._demand_index(graph) for route in routes]
    if indexes:
        cells = indexes[0] if len(indexes) == 1 else np.concatenate(indexes)
        np.add.at(graph.demand_flat, cells, amount)


# ---------------------------------------------------------------------- #
# Segment tables
# ---------------------------------------------------------------------- #
def normalize_table(raw: np.ndarray, n_routes: int) -> np.ndarray:
    """The segment table of exactly the unit edges of ``raw``'s rows,
    each once, fused into maximal runs.

    ``raw`` holds ``n_routes`` routes' rows in any order, which may
    overlap, repeat or be empty (``lo == hi``), with non-negative
    coordinates.  The result is sorted by ``(kind, route, a, b, lo)``:
    a route's horizontal wires by ``(layer, y, x)``, vertical ones by
    ``(layer, x, y)``, vias by ``(x, y, layer)``.
    """
    length = raw[5] - raw[4]
    last = length.cumsum()
    if not last.size or not last[-1]:
        return np.empty((6, 0), dtype=np.intp)
    scale, digits, _ = _unit_radix(int(raw[2:].max()), n_routes)
    units = np.sort(np.repeat(scale @ raw[:5] + length - last, length) + np.arange(last[-1]))
    return _fuse_units(units, scale, digits)


@lru_cache(maxsize=64)
def _unit_radix(top: int, n_routes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(scale, digits, weights)`` of the unit-edge key of rows whose
    ``a``, ``b`` and ``lo`` are at most ``top``: the unit edge ``(kind,
    route, a, b, lo)`` is keyed ``scale @ (kind, route, a, b, lo)`` in
    one integer, and field ``i`` of key ``k`` is ``k // scale[i] %
    digits[i]``.  The radix leaves a gap after a line's last unit, so
    keys one apart are neighbouring units of one run.  ``weights[kind]``
    keys the ``(x, y, layer)`` of a unit step's lower end: the scale of
    the field each fills (read-only)."""
    radix = top + 2
    scale, digits = np.array([
        [n_routes * radix**3, radix**3, radix**2, radix, 1],
        [VIA + 1, n_routes, radix, radix, radix],
    ])
    # Per kind, the field (a, b, lo: 0, 1, 2) of a lower end's x, y, layer.
    weights = scale[2:][[[2, 1, 0], [1, 2, 0], [0, 1, 2]]]
    for table in (scale, digits, weights):
        table.flags.writeable = False
    return scale, digits, weights


def _fuse_units(units: np.ndarray, scale: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The segment table of the sorted unit-edge keys ``units`` (see
    :func:`_unit_radix`; a key may repeat), fused into maximal runs."""
    # Runs start where the next key is more than one up (duplicates are
    # 0 apart): at[i] is where run i starts, and at[i + 1] - 1 its end.
    edge = np.empty(units.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.greater(units[1:] - units[:-1], 1, out=edge[1:-1])
    at = edge.nonzero()[0]
    first = units[at[:-1]]
    table = np.empty((6, first.size), dtype=np.intp)
    table[:5] = (first[:, None] // scale % digits).T
    table[5] = table[4] + 1 + units[at[1:] - 1] - first
    return table


def routes_from_table(table: np.ndarray, n_routes: int) -> List[Route]:
    """The ``n_routes`` routes of a segment table: each route's wires
    (horizontal, then vertical) and vias in table order.

    Precondition: ``table`` is :func:`normalize_table` output over
    ``n_routes`` routes — sorted by ``(kind, route)``, every ``route``
    in ``range(n_routes)`` and ``lo < hi`` on every row (property-tested
    in ``tests/test_commit_table.py``); it is not checked again here.
    The table's layout makes every row axis-aligned and ``lo < hi``
    makes it non-zero and normalised, which is all the segments'
    ``__post_init__`` would prove, so the segments are built without
    it, their fields written straight into the instance dict.
    """
    kind, route = table[:2]
    group = kind * n_routes + route
    first = group.searchsorted(np.arange(3 * n_routes + 1)).tolist()
    # Route j's horizontal wires are rows h_at[j]:h_at[j + 1], and so on.
    h_at, v_at = first[: n_routes + 1], first[n_routes : 2 * n_routes + 1]
    via_at = first[2 * n_routes :]
    rows = table[2:].T.tolist()
    new, set_dict = object.__new__, object.__setattr__
    segments = []
    append = segments.append
    for layer, y, x1, x2 in rows[: v_at[0]]:
        segment = new(WireSegment)
        set_dict(segment, "__dict__", {"layer": layer, "x1": x1, "y1": y, "x2": x2, "y2": y})
        append(segment)
    for layer, x, y1, y2 in rows[v_at[0] : via_at[0]]:
        segment = new(WireSegment)
        set_dict(segment, "__dict__", {"layer": layer, "x1": x, "y1": y1, "x2": x, "y2": y2})
        append(segment)
    for x, y, lo, hi in rows[via_at[0] :]:
        segment = new(ViaSegment)
        set_dict(segment, "__dict__", {"x": x, "y": y, "lo": lo, "hi": hi})
        append(segment)
    return [
        Route(
            segments[h_at[j] : h_at[j + 1]] + segments[v_at[j] : v_at[j + 1]],
            segments[via_at[j] : via_at[j + 1]],
        )
        for j in range(n_routes)
    ]


#: Per step: ``(kind, coordinates moved)`` from its squared coordinate
#: change — a unit step moves one, along the axis of its kind.
_KIND_AND_MOVED = np.array([[H_WIRE, 1], [V_WIRE, 1], [VIA, 1]])


def routes_from_paths(
    graph: GridGraph, paths: Sequence[Sequence[Sequence[GridNode]]]
) -> List[Route]:
    """One route per entry of ``paths``, a list of node paths (each a
    sequence of ``(x, y, layer)`` nodes one unit step apart): exactly
    the unit edges the paths step along, each once, in maximal runs and
    in :func:`normalize_table` order — with the demand index on
    ``graph`` filled.

    Every step is one unit edge, so no row needs expanding: a step's key
    is its lower end's coordinates in the kind's field order, and its
    demand position is :func:`step_layout`'s at that end, which is
    where a step off the grid or against a layer's direction shows."""
    tails: List[GridNode] = []
    heads: List[GridNode] = []
    ends = []
    for group in paths:
        for path in group:
            tails += path[:-1]
            heads += path[1:]
        ends.append(len(tails))
    n_routes, count = len(paths), len(tails)
    if not count:
        routes = [Route() for _ in paths]
        empty = np.empty(0, dtype=np.intp)
        _assign_index(graph, routes, empty, empty)
        return routes
    step = np.fromiter(chain.from_iterable(tails + heads), np.intp, 6 * count)
    step = step.reshape(2, count, 3)
    lower = np.minimum(step[0], step[1])
    # A unit step moves one coordinate by one: its axis is the kind.
    delta = step[1] - step[0]
    delta *= delta
    kind, moved = (delta @ _KIND_AND_MOVED).T
    # A negative coordinate wraps to a huge unsigned one.
    ok = (lower.view(np.uintp) < (graph.nx, graph.ny, graph.n_layers)).all(axis=1)
    ok &= moved == 1
    if ok.all():
        x, y, layer = lower.T
        where, plane, _ = step_layout(graph)
        plane = plane[kind, layer]
        # Plane -1 reads a real plane; its position is not used.
        positions = where[plane, x, y]
        ok = (plane >= 0) & (positions >= 0)
    if not ok.all():
        first = int(ok.argmin())
        _reject_step(graph, tails[first], heads[first])
    scale, digits, weights = _unit_radix(max(graph.nx, graph.ny, graph.n_layers), n_routes)
    keys = np.einsum("ij,ij->i", lower, weights[kind])
    keys += kind * scale[0]
    route = None
    if n_routes > 1:
        route = np.arange(n_routes).repeat(np.diff(ends, prepend=0))
        keys += route * scale[1]
    order = keys.argsort()
    units = keys[order]
    keep = np.empty(count, dtype=bool)
    keep[0] = True
    np.not_equal(units[1:], units[:-1], out=keep[1:])
    routes = routes_from_table(_fuse_units(units, scale, digits), n_routes)
    order = order[keep]
    _assign_index(graph, routes, positions[order], None if route is None else route[order])
    return routes


def _reject_step(graph: GridGraph, tail: GridNode, head: GridNode) -> NoReturn:
    """Raise the :class:`ValueError` of path step ``tail -> head``."""
    (x, y, layer), (x2, y2, layer2) = tail, head
    if abs(x2 - x) + abs(y2 - y) + abs(layer2 - layer) != 1:
        raise ValueError(f"no unit step: {tail} -> {head}")
    if layer != layer2:
        graph.check_via(x, y, min(layer, layer2), max(layer, layer2))
    else:
        graph.check_wire(layer, x, y, x2, y2)
    raise ValueError(f"malformed path step: {tail} -> {head}")


def commit_table(
    graph: GridGraph, table: np.ndarray, routes: Sequence[Route], amount: float = 1.0
) -> None:
    """Commit a segment table's demand to ``graph`` as
    :func:`commit_routes` commits its ``routes`` (the ones
    :func:`routes_from_table` builds of it), with the same result, and
    fill their demand indexes: checked by :func:`demand_positions`,
    then written with one ``np.add.at``."""
    np.add.at(graph.demand_flat, _index_routes(graph, table, routes), amount)


def demand_positions(graph: GridGraph, table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, positions)``: the position in ``graph``'s flat demand
    buffer of every unit edge of ``table``'s rows, row after row, and
    the row each comes from.

    Every row is first checked for what :meth:`GridGraph.check_wire`
    and :meth:`~GridGraph.check_via` check; the first offending row of
    the lowest-numbered route raises their ``ValueError`` (for a
    table-built route: its first offending segment in route order).
    """
    kind, route, a, b, lo, hi = table
    spec, head, _ = _layout(graph)
    # Per row: its kind's bounds of a, b, lo (that is hi) and hi.  A
    # negative value wraps to a huge unsigned one.
    k = np.minimum(kind.astype(np.uintp), VIA + 1)
    row = spec[k].T
    row[2] = hi
    ok = (table[2:].astype(np.uintp) < row[:4]).all(axis=0)
    start = head[k, np.where(ok, a, 0)]
    ok &= start >= 0
    if not ok.all():
        bad = np.flatnonzero(~ok)
        first = table[:, bad[route[bad].argmin()]].tolist()
        k, _, a, b, lo, hi = first
        if k == VIA:
            graph.check_via(a, b, lo, hi)
        elif k in (H_WIRE, V_WIRE):
            graph.check_wire(a, *((lo, b, hi, b) if k == H_WIRE else (b, lo, b, hi)))
        raise ValueError(f"malformed segment-table row {first}")
    return ranges(start + b * row[4] + lo * row[5], hi - lo, row[5])


def edges_at(
    graph: GridGraph, positions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(kind, layer, x, y)`` of the unit edges at flat demand-buffer
    ``positions`` — the inverse of :func:`demand_positions`: the edge's
    segment-table kind, its layer (a via's lower one) and the G-cell
    ``(x, y)`` it leaves."""
    planes = _layout(graph)[2]
    plane = planes[0].searchsorted(positions, side="right") - 1
    start, kind, per_x = planes[:, plane]
    x, y = np.divmod(positions - start, per_x)
    return kind, plane % graph.n_layers, x, y


def _index_routes(graph: GridGraph, table: np.ndarray, routes: Sequence[Route]) -> np.ndarray:
    """Fill the demand index of the routes of ``table`` (``routes[j]``
    is its route ``j``); return every row's positions, in table order."""
    owner, positions = demand_positions(graph, table)
    _assign_index(graph, routes, positions, table[1][owner] if len(routes) > 1 else None)
    return positions


def _assign_index(
    graph: GridGraph, routes: Sequence[Route], positions: np.ndarray, route_of
) -> None:
    """Give ``routes[j]`` the ``positions`` whose ``route_of`` is ``j``,
    in their order (``route_of`` may be None for one route)."""
    if len(routes) == 1:
        by_route, ends = positions, [positions.size]
    else:
        by_route = positions[np.argsort(route_of, kind="stable")]
        ends = np.bincount(route_of, minlength=len(routes)).cumsum().tolist()
    via, start = graph.via_demand, 0
    for route, end in zip(routes, ends):
        route._index, route._index_on = by_route[start:end], via
        route._index_segments = len(route.wires) + len(route.vias)
        start = end


def _layout(graph: GridGraph):
    """``(spec, head, planes)`` of ``graph``'s flat demand buffer.  Row
    ``k`` of ``spec``/``head`` is segment kind ``k`` (a fourth row
    matches no row): ``spec[k]`` the bounds of ``a``, ``b``, ``lo`` (a
    slot for the row's ``hi``) and ``hi``, then the buffer step along
    ``b`` and along the run; ``head[k, a]`` the position at ``b = lo =
    0``, or -1 where a wire's layer runs the other way.  ``planes``: per
    plane (wire layers, then via layers) its start, kind and x step."""
    return _grid_layout(graph.nx, graph.ny, graph.edge_offset, graph.horizontal.tobytes())


@lru_cache(maxsize=8)
def _grid_layout(nx: int, ny: int, edge_offset: Tuple[int, ...], horizontal: bytes):
    # Edge [x, y] of a horizontal layer sits at x * ny + y, of a vertical
    # one at x * (ny - 1) + y; via [l, x, y] at l * nx * ny + x * ny + y.
    is_h = np.frombuffer(horizontal, dtype=bool)
    n_layers = is_h.size
    spec = np.array([
        [n_layers, ny, 0, nx, 1, ny],
        [n_layers, nx, 0, ny, ny - 1, 1],
        [nx, ny, 0, n_layers, 1, nx * ny],
        [0, 0, 0, 0, 0, 0],
    ])
    layers = np.array(edge_offset[:-1])
    head = np.full((4, max(n_layers, nx)), -1)
    head[H_WIRE, :n_layers] = np.where(is_h, layers, -1)
    head[V_WIRE, :n_layers] = np.where(is_h, -1, layers)
    head[VIA, :nx] = edge_offset[-1] + ny * np.arange(nx)
    kind = np.concatenate((np.where(is_h, H_WIRE, V_WIRE), np.full(n_layers - 1, VIA)))
    planes = np.array([
        np.concatenate((layers, edge_offset[-1] + nx * ny * np.arange(n_layers - 1))),
        kind,
        np.where(kind == V_WIRE, ny - 1, ny),
    ])
    for table in (spec, head, planes):
        table.flags.writeable = False
    return spec, head, planes


class StepLayout(NamedTuple):
    """Where each node's unit steps sit in a grid's flat demand buffer
    (see :func:`step_layout`).  A step is its family ``k`` (``0`` the
    ``+x`` step, ``1`` the ``+y`` step, ``2`` the ``+layer`` step) out
    of node ``[layer, x, y]``; only ``2 L - 1`` of the ``3 L`` families
    per layer have edges, one *plane* each.

    ``where``: ``(2 L - 1, nx, ny)`` positions, plane ``l < L`` the
    wire step of layer ``l`` along its own direction and plane ``L + l``
    the via step from layer ``l``; -1 where the step leaves the grid.
    ``plane``: ``(3, L)``, the plane of family ``k`` on ``layer``, -1
    where the layer has no such edge (a wire layer's other direction,
    the top layer's via).  ``owner``: ``(2, 2 L - 1)``, the ``(k,
    layer)`` of each plane — the inverse of ``plane``."""

    where: np.ndarray
    plane: np.ndarray
    owner: np.ndarray


def step_layout(graph: GridGraph) -> StepLayout:
    """The :class:`StepLayout` of ``graph``.  Built on first use per
    grid layout (read-only), so a run that reroutes nothing never
    builds it."""
    return _step_layout(graph.nx, graph.ny, graph.edge_offset, graph.horizontal.tobytes())


@lru_cache(maxsize=8)
def _step_layout(nx: int, ny: int, edge_offset: Tuple[int, ...], horizontal: bytes) -> StepLayout:
    is_h = np.frombuffer(horizontal, dtype=bool)
    n_layers = is_h.size
    x, y = np.arange(nx)[:, None], np.arange(ny)
    where = np.full((2 * n_layers - 1, nx, ny), -1, dtype=np.intp)
    for layer, start in enumerate(edge_offset[:-1]):
        if is_h[layer]:
            where[layer, :-1] = start + x[:-1] * ny + y
        else:
            where[layer, :, :-1] = start + x * (ny - 1) + y[:-1]
    where[n_layers:] = edge_offset[-1] + np.arange((n_layers - 1) * nx * ny).reshape(-1, nx, ny)
    layers = np.arange(n_layers)
    owner = np.array([
        np.concatenate((np.where(is_h, 0, 1), np.full(n_layers - 1, 2))),
        np.concatenate((layers, layers[:-1])),
    ])
    plane = np.full((3, n_layers), -1, dtype=np.intp)
    plane[owner[0], owner[1]] = np.arange(owner.shape[1])
    for table in (where, plane, owner):
        table.flags.writeable = False
    return StepLayout(where, plane, owner)
