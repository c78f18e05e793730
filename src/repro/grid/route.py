"""Routed-net geometry: wire segments, via stacks, and whole-net routes.

A :class:`Route` is the output of pattern routing or maze routing for one
net: a set of straight wire segments plus via stacks.  Routes know how to
commit/uncommit their demand on a :class:`~repro.grid.graph.GridGraph`
(rip-up is ``uncommit``) and how to report wirelength and via counts for
the quality score (Eq. 15).  Each route caches where its edges sit in
the graph's flat demand buffer: :func:`commit_routes` commits a whole
batch with one scatter at those positions, and the rip-up scan reads
overflow at the same ones.

A batch of routes built as arrays travels as a *segment table* instead:
``(6, S)`` ints, one column per segment — ``kind``, ``route``, ``a``,
``b``, ``lo``, ``hi``.  Kind :data:`H_WIRE` is a horizontal wire on
layer ``a`` along row ``y = b`` from ``x = lo`` to ``x = hi``;
:data:`V_WIRE` a vertical wire on layer ``a`` along column ``x = b``
from ``y = lo`` to ``y = hi``; :data:`VIA` a via stack at ``(a, b)``
from layer ``lo`` to layer ``hi``.  Every row is axis-aligned by layout.
:func:`routes_from_table` builds its routes and :func:`commit_table`
commits it with one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Set, Tuple

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
        self._index: Optional[tuple] = None  # see _demand_index

    def add_wire(self, segment: WireSegment) -> None:
        """Append a wire segment."""
        self.wires.append(segment)

    def add_via(self, segment: ViaSegment) -> None:
        """Append a via stack."""
        self.vias.append(segment)

    def extend(self, other: "Route") -> None:
        """Append all geometry of ``other``."""
        self.wires.extend(other.wires)
        self.vias.extend(other.vias)

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
        change once built (the segment counts are part of the key, so an
        appended segment refreshes it).  Every committed route keeps
        one, so it holds only tuples, ints and a NumPy array, which the
        cyclic garbage collector does not track; the graph's via-demand
        array, created with the graph and never replaced, stands for it.
        """
        key = (len(self.wires), len(self.vias))
        cached = self._index
        if cached is not None and cached[0] is graph.via_demand and cached[1] == key:
            return cached[2]
        cells: List[int] = []
        ny, plane, offset = graph.ny, graph.nx * graph.ny, graph.edge_offset
        for w in self.wires:
            layer, x1, y1, x2, y2 = w.layer, w.x1, w.y1, w.x2, w.y2
            graph.check_wire(layer, x1, y1, x2, y2)
            # Edge [x, y] of a layer's wire array leaves G-cell (x, y).
            if y1 == y2:
                first = offset[layer] + x1 * ny + y1
                cells.extend(range(first, first + (x2 - x1) * ny, ny))
            else:
                first = offset[layer] + x1 * (ny - 1)
                cells.extend(range(first + y1, first + y2))
        for v in self.vias:
            graph.check_via(v.x, v.y, v.lo, v.hi)
            cell = offset[-1] + v.x * ny + v.y
            cells.extend(range(v.lo * plane + cell, v.hi * plane + cell, plane))
        index = np.array(cells, dtype=np.intp)
        self._index = (graph.via_demand, key, index)
        return index

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
def routes_from_table(table: np.ndarray, n_routes: int) -> List[Route]:
    """The ``n_routes`` routes of a segment table sorted by ``(kind,
    route)``: each route's wires (horizontal, then vertical) and vias in
    table order.

    One array check proves what the segments' ``__post_init__`` would:
    the table's layout makes every row axis-aligned, and ``lo < hi``
    makes it non-zero and normalised.  The segments are then built
    without it, their fields written straight into the instance dict.
    """
    kind, route, _, _, lo, hi = table
    group = kind * n_routes + route
    if not (
        (lo < hi).all()
        and (group[1:] >= group[:-1]).all()
        and (route.astype(np.uintp) < n_routes).all()
        and (not group.size or (group[0] >= 0 and group[-1] < 3 * n_routes))
    ):
        raise ValueError("segment table is not sorted by (kind, route) with lo < hi")
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


def commit_table(
    graph: GridGraph, table: np.ndarray, routes: Sequence[Route], amount: float = 1.0
) -> None:
    """Commit a segment table's demand to ``graph`` as
    :func:`commit_routes` commits its ``routes`` (the ones
    :func:`routes_from_table` builds of it), with the same result.

    Every segment is checked for everything :meth:`GridGraph.check_wire`
    and :meth:`~GridGraph.check_via` check before anything is written;
    on a failure the routes are checked one by one, so the first
    offending segment in route order raises its own ``ValueError``.
    Then one ``np.add.at`` writes the flat demand buffer.
    """
    kind, _, a, b, lo, hi = table
    if not kind.size:
        return
    nx, ny, n_layers = graph.nx, graph.ny, graph.n_layers
    # Per kind: bounds of a, b and the run lo..hi, then the flat-buffer
    # step along the run.  A negative value wraps to a huge unsigned one.
    kind_ok = kind.astype(np.uintp) <= VIA
    spec = _kind_spec(nx, ny, n_layers)[np.where(kind_ok, kind, VIA)].T
    is_wire = kind < VIA
    ok = (
        kind_ok
        & (a.astype(np.uintp) < spec[0])
        & (b.astype(np.uintp) < spec[1])
        & (lo.astype(np.uintp) < hi)
        & (hi < spec[2])
        # A wire's kind must match its layer: horizontal (True) takes
        # H_WIRE (0), vertical (False) V_WIRE (1).
        & ~(is_wire & (graph.horizontal[a % n_layers] == kind))
    )
    if not ok.all():
        for r in routes:
            r._demand_index(graph)
        raise ValueError("segment table disagrees with its routes")

    # Edge [x, y] of a horizontal layer sits at x * ny + y, of a vertical
    # one at x * (ny - 1) + y; via [l, x, y] at l * nx * ny + x * ny + y.
    layer = np.where(is_wire, a, n_layers)  # n_layers stands for the vias
    base = np.array(graph.edge_offset)[layer] + np.where(
        is_wire, b * np.where(kind, ny - 1, 1), a * ny + b
    )
    owner, run = ranges(lo, hi - lo)
    np.add.at(graph.demand_flat, base[owner] + run * spec[3][owner], amount)


@lru_cache(maxsize=8)
def _kind_spec(nx: int, ny: int, n_layers: int) -> np.ndarray:
    """Per segment kind: the bounds of ``a``, ``b`` and the run's ``hi``,
    then the run's step in the flat demand buffer (read-only: shared)."""
    spec = np.array([[n_layers, ny, nx, ny], [n_layers, nx, ny, 1], [nx, ny, n_layers, nx * ny]])
    spec.flags.writeable = False
    return spec
