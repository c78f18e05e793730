"""Routed-net geometry: wire segments, via stacks, and whole-net routes.

A :class:`Route` is the output of pattern routing or maze routing for one
net: a set of straight wire segments plus via stacks.  Routes know how to
commit/uncommit their demand on a :class:`~repro.grid.graph.GridGraph`
(rip-up is ``uncommit``) and how to report wirelength and via counts for
the quality score (Eq. 15); :func:`commit_routes` commits a whole batch
in one write per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.grid.graph import GridGraph
from repro.utils.unionfind import UnionFind

GridNode = Tuple[int, int, int]  # (x, y, layer)
IntRect = Tuple[int, int, int, int]


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

    def _demand_index(self, graph: GridGraph):
        """The flat demand cells this route occupies on ``graph``, as
        ``(layer or None for vias, cells, bounding rect)`` entries.

        Validated on first use and cached: a route's geometry does not
        change once built (the segment counts are part of the key, so an
        appended segment refreshes it).  Every committed route keeps
        one, so it holds only tuples, ints and NumPy arrays, which the
        cyclic garbage collector does not track; the graph's via-demand
        array, created with the graph and never replaced, stands for it.
        """
        key = (len(self.wires), len(self.vias))
        cached = self._index
        if cached is not None and cached[0] is graph.via_demand and cached[1] == key:
            return cached[2]
        cells: Dict[Optional[int], List[int]] = {}
        rects: Dict[Optional[int], IntRect] = {}
        ny, plane = graph.ny, graph.nx * graph.ny
        for w in self.wires:
            layer, x1, y1, x2, y2 = w.layer, w.x1, w.y1, w.x2, w.y2
            graph.check_wire(layer, x1, y1, x2, y2)
            # Edge [x, y] of a layer's wire array leaves G-cell (x, y).
            if y1 == y2:
                run, rect = range(x1 * ny + y1, x2 * ny + y1, ny), (x1, y1, x2 - 1, y2)
            else:
                first = x1 * (ny - 1)
                run, rect = range(first + y1, first + y2), (x1, y1, x2, y2 - 1)
            _add(cells, rects, layer, run, rect)
        for v in self.vias:
            graph.check_via(v.x, v.y, v.lo, v.hi)
            cell = v.x * ny + v.y
            run = range(v.lo * plane + cell, v.hi * plane + cell, plane)
            _add(cells, rects, None, run, (v.x, v.y, v.x, v.y))
        entries = tuple(
            (layer, np.array(run, dtype=np.intp), rects[layer]) for layer, run in cells.items()
        )
        self._index = (graph.via_demand, key, entries)
        return entries

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


def _add(cells, rects, key, run, rect) -> None:
    """Append ``run`` to ``cells[key]`` and grow ``rects[key]`` by ``rect``."""
    if key in cells:
        cells[key].extend(run)
        old = rects[key]
        rects[key] = (
            min(old[0], rect[0]), min(old[1], rect[1]),
            max(old[2], rect[2]), max(old[3], rect[3]),
        )
    else:
        cells[key], rects[key] = list(run), rect


def commit_routes(
    graph: GridGraph, routes: Sequence[Route], amount: float = 1.0
) -> None:
    """Add the demand of all ``routes`` to ``graph`` (negative = rip-up).

    Every wire and via is validated as :meth:`GridGraph.add_wire_demand`
    / :meth:`~GridGraph.add_via_demand` do before anything is written;
    then each touched layer takes one ``np.add.at`` and the via array
    one more (demands are small integers, so the sums are exact in any
    order), and the dirty log gets one merged edge rect per layer plus
    one via rect — O(layers) records keep incremental drains small.
    """
    cells: Dict[Optional[int], list] = {}
    rects: Dict[Optional[int], IntRect] = {}
    for entries in [route._demand_index(graph) for route in routes]:
        for key, run, rect in entries:
            _add(cells, rects, key, (run,), rect)  # collect the arrays
    for key, runs in cells.items():
        demand = graph.via_demand if key is None else graph.wire_demand[key]
        np.add.at(demand.reshape(-1), runs[0] if len(runs) == 1 else np.concatenate(runs), amount)
    # Written first, logged second (see GridGraph.add_wire_demand).
    graph.dirty.extend([
        ("v", *rect) if key is None else ("w", key, *rect) for key, rect in rects.items()
    ])
