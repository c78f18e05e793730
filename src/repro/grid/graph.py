"""The 3-D global-routing grid graph (capacity / demand bookkeeping).

Each metal layer is a 2-D array of G-cells with a preferred direction.
Wire edges exist between direction-adjacent G-cells on the same layer;
via edges connect the same 2-D cell on vertically adjacent layers
(Fig. 1).  Capacity is the number of tracks an edge offers, demand is
the number of tracks routed nets consume; ``demand > capacity`` is an
overflow, which the contest metric (and the paper's Eq. 15) counts as
*shorts*.
"""

from __future__ import annotations

import threading
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.layers import LayerStack

#: A dirty-log record.  Three shapes:
#:   ("w", layer, xlo, ylo, xhi, yhi) — wire edges touched, in the
#:       layer's wire-array *edge* coordinates (both corners inclusive);
#:   ("v", xlo, ylo, xhi, yhi)        — via pillars touched, in G-cell
#:       coordinates (the whole layer span of each pillar is dirty);
#:   ("all",)                         — everything is dirty (bulk writes).
DirtyRecord = Tuple


class DirtyLog:
    """Append-only log of demand-touching rectangles.

    Every demand mutation appends a record *after* the arrays are
    written, so a reader that drains the log up to position ``p`` and
    then reads the demand arrays sees at least every mutation recorded
    before ``p`` (it may see newer demand too — incremental consumers
    treat that as overshoot and re-refresh when the record arrives).

    Multiple subscribers (the pattern engine's and the maze router's
    :class:`~repro.grid.cost.CostQuery`) each keep their own cursor and
    call :meth:`since` independently.  Routing runs on one thread; the
    lock guards the log for embedders (the job service) that may reach
    one graph from more than one thread.  The log compacts itself once
    it exceeds ``max_records``; a cursor that predates the retained
    window gets ``None`` back and must treat the whole grid as dirty —
    stale data is never served silently.
    """

    ALL: DirtyRecord = ("all",)

    def __init__(self, max_records: int = 1 << 16) -> None:
        self._records: List[DirtyRecord] = []
        self._base = 0
        self._max_records = max_records
        self._lock = threading.Lock()

    @property
    def end(self) -> int:
        """The log position just past the newest record (the demand epoch)."""
        with self._lock:
            return self._base + len(self._records)

    def _compact(self) -> None:
        if len(self._records) > self._max_records:
            drop = len(self._records) // 2
            del self._records[:drop]
            self._base += drop

    def append(self, record: DirtyRecord) -> None:
        """Append one record (thread-safe)."""
        with self._lock:
            self._records.append(record)
            self._compact()

    def extend(self, records: Sequence[DirtyRecord]) -> None:
        """Append several records atomically (thread-safe)."""
        if not records:
            return
        with self._lock:
            self._records.extend(records)
            self._compact()

    def since(self, cursor: int) -> Tuple[Optional[List[DirtyRecord]], int]:
        """Return ``(records, end)`` for everything logged at/after ``cursor``.

        ``records`` is ``None`` when ``cursor`` predates the retained
        window (compaction dropped records the caller never saw) — the
        caller must then refresh everything.
        """
        with self._lock:
            end = self._base + len(self._records)
            if cursor < self._base:
                return None, end
            return self._records[cursor - self._base :], end


class GridGraph:
    """Capacity/demand state of a global-routing grid.

    Parameters
    ----------
    nx, ny:
        Number of G-cell columns and rows.
    stack:
        The metal-layer stack (defines ``L`` and per-layer directions).
    wire_capacity:
        Default number of tracks per wire edge (uniform; individual edges
        can be adjusted afterwards through :attr:`wire_capacity`).
    via_capacity:
        Default number of vias available per via edge.
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        stack: LayerStack,
        wire_capacity: float = 8.0,
        via_capacity: float = 16.0,
    ) -> None:
        if nx < 2 or ny < 2:
            raise ValueError("grid must be at least 2x2 G-cells")
        self.nx = nx
        self.ny = ny
        self.stack = stack
        #: Per layer: True where it routes horizontally.
        self.horizontal = np.array([stack.is_horizontal(l) for l in range(stack.n_layers)])
        # One 2-D array per layer.  Horizontal layers have nx-1 edges per
        # row; vertical layers have ny-1 edges per column.  Index [x, y]
        # addresses the edge leaving G-cell (x, y) in the layer direction.
        # Via edges between layer l and l+1 at every (x, y) follow.  All
        # of them are views into one flat buffer each for demand and
        # capacity: wire layer l starts at ``edge_offset[l]``, the via
        # array at ``edge_offset[L]`` — so a batch of edges of any
        # layers is one gather.
        shapes = [self._wire_array_shape(layer) for layer in range(stack.n_layers)]
        via_shape = (stack.n_layers - 1, nx, ny)
        self.edge_offset: Tuple[int, ...] = tuple(
            accumulate((rows * cols for rows, cols in shapes), initial=0)
        )
        size = self.edge_offset[-1] + (stack.n_layers - 1) * nx * ny
        self.demand_flat = np.zeros(size)
        self.capacity_flat = np.full(size, float(via_capacity))
        self.capacity_flat[: self.edge_offset[-1]] = float(wire_capacity)

        def views(flat: np.ndarray) -> List[np.ndarray]:
            return [
                flat[lo:hi].reshape(shape)
                for lo, hi, shape in zip(self.edge_offset, self.edge_offset[1:], shapes)
            ]

        self.wire_capacity: List[np.ndarray] = views(self.capacity_flat)
        self.wire_demand: List[np.ndarray] = views(self.demand_flat)
        self.via_capacity = self.capacity_flat[self.edge_offset[-1] :].reshape(via_shape)
        self.via_demand = self.demand_flat[self.edge_offset[-1] :].reshape(via_shape)
        # Dirty-region log: demand mutations record the rects they
        # touched so incremental cost engines refresh only those.
        self.dirty = DirtyLog()

    @property
    def demand_epoch(self) -> int:
        """Monotone counter advanced by every logged demand mutation."""
        return self.dirty.end

    # ------------------------------------------------------------------ #
    # Shapes and validation
    # ------------------------------------------------------------------ #
    @property
    def n_layers(self) -> int:
        """Number of metal layers ``L``."""
        return self.stack.n_layers

    def _wire_array_shape(self, layer: int) -> Tuple[int, int]:
        if self.stack.is_horizontal(layer):
            return (self.nx - 1, self.ny)
        return (self.nx, self.ny - 1)

    def in_bounds(self, x: int, y: int) -> bool:
        """Return True when G-cell ``(x, y)`` exists."""
        return 0 <= x < self.nx and 0 <= y < self.ny

    def check_wire(self, layer: int, x1: int, y1: int, x2: int, y2: int) -> None:
        """Raise :class:`ValueError` unless a segment may carry demand:
        on a layer of the stack, both ends on the grid, and (unless it
        is a point) along the layer's preferred direction."""
        if not 0 <= layer < len(self.wire_demand):
            raise ValueError(f"wire layer out of range: {layer}")
        nx, ny = self.nx, self.ny
        if not (0 <= x1 < nx and 0 <= x2 < nx and 0 <= y1 < ny and 0 <= y2 < ny):
            raise ValueError(f"segment endpoint off grid: ({x1},{y1})-({x2},{y2})")
        if (x1, y1) != (x2, y2) and (y1 == y2) != self.stack.is_horizontal(layer):
            raise ValueError(
                f"segment ({x1},{y1})-({x2},{y2}) violates preferred direction "
                f"of layer {layer} ({self.stack.direction(layer).value})"
            )

    def check_via(self, x: int, y: int, lo_layer: int, hi_layer: int) -> None:
        """Raise :class:`ValueError` unless a via stack ``lo <= hi`` may
        carry demand: on the grid, inside the layer stack."""
        if not self.in_bounds(x, y):
            raise ValueError(f"via off grid: ({x},{y})")
        if not (0 <= lo_layer and hi_layer < self.n_layers):
            raise ValueError(f"via layers out of range: {lo_layer}..{hi_layer}")

    # ------------------------------------------------------------------ #
    # Demand updates
    # ------------------------------------------------------------------ #
    def add_wire_demand(
        self, layer: int, x1: int, y1: int, x2: int, y2: int, amount: float = 1.0
    ) -> None:
        """Add ``amount`` demand on every wire edge of a straight segment.

        The segment must be axis-aligned along the layer's preferred
        direction.  A zero-length segment adds nothing.  The touched
        edge rect is appended to the dirty log (routes commit through
        :func:`~repro.grid.route.commit_routes`, which logs one merged
        rect per layer instead).
        """
        self.check_wire(layer, x1, y1, x2, y2)
        if x1 == x2 and y1 == y2:
            return
        # Mutate first, log second: a drain that misses the record
        # re-reads this demand later; the opposite order could hand out
        # a cursor covering a mutation it never saw.
        if y1 == y2:
            lo, hi = sorted((x1, x2))
            self.wire_demand[layer][lo:hi, y1] += amount
            self.dirty.append(("w", layer, lo, y1, hi - 1, y1))
        else:
            lo, hi = sorted((y1, y2))
            self.wire_demand[layer][x1, lo:hi] += amount
            self.dirty.append(("w", layer, x1, lo, x1, hi - 1))

    def add_via_demand(
        self, x: int, y: int, lo_layer: int, hi_layer: int, amount: float = 1.0
    ) -> None:
        """Add ``amount`` demand to the via stack from ``lo_layer`` to ``hi_layer``."""
        if lo_layer > hi_layer:
            lo_layer, hi_layer = hi_layer, lo_layer
        self.check_via(x, y, lo_layer, hi_layer)
        if lo_layer == hi_layer:
            return
        self.via_demand[lo_layer:hi_layer, x, y] += amount
        self.dirty.append(("v", x, y, x, y))

    def mark_all_demand_dirty(self) -> None:
        """Record that demand changed everywhere (bulk array writes).

        Call this after mutating ``wire_demand``/``via_demand`` arrays
        directly (benchmark set-ups, tests) when an incremental
        :class:`~repro.grid.cost.CostQuery` subscribes to this graph.
        """
        self.dirty.append(DirtyLog.ALL)

    # ------------------------------------------------------------------ #
    # Overflow metrics
    # ------------------------------------------------------------------ #
    def wire_overflow(self) -> float:
        """Return total wire-edge overflow ``sum(max(0, demand - capacity))``."""
        total = 0.0
        for layer in range(self.n_layers):
            excess = self.wire_demand[layer] - self.wire_capacity[layer]
            total += float(np.sum(np.maximum(excess, 0.0)))
        return total

    def via_overflow(self) -> float:
        """Return total via-edge overflow."""
        excess = self.via_demand - self.via_capacity
        return float(np.sum(np.maximum(excess, 0.0)))

    def total_overflow(self) -> float:
        """Return combined wire + via overflow (the *shorts* measure)."""
        return self.wire_overflow() + self.via_overflow()

    def overflowed_wire_edges(self) -> int:
        """Return the number of wire edges whose demand exceeds capacity."""
        count = 0
        for layer in range(self.n_layers):
            count += int(np.sum(self.wire_demand[layer] > self.wire_capacity[layer]))
        return count

    def congestion_of_rect(self, xlo: int, ylo: int, xhi: int, yhi: int) -> float:
        """Return the max demand/capacity ratio of wire edges in a region.

        Used as a quick congestion-map probe by examples and tests.
        """
        worst = 0.0
        for layer in range(self.n_layers):
            cap = self.wire_capacity[layer]
            dem = self.wire_demand[layer]
            if self.stack.is_horizontal(layer):
                sub_cap = cap[max(xlo, 0) : xhi, ylo : yhi + 1]
                sub_dem = dem[max(xlo, 0) : xhi, ylo : yhi + 1]
            else:
                sub_cap = cap[xlo : xhi + 1, max(ylo, 0) : yhi]
                sub_dem = dem[xlo : xhi + 1, max(ylo, 0) : yhi]
            if sub_cap.size == 0:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(sub_cap > 0, sub_dem / sub_cap, np.inf * (sub_dem > 0))
            if ratio.size:
                worst = max(worst, float(np.max(ratio)))
        return worst

    # ------------------------------------------------------------------ #
    # Snapshots (used by rip-up bookkeeping and tests)
    # ------------------------------------------------------------------ #
    def demand_snapshot(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Return deep copies of the wire and via demand arrays."""
        return ([d.copy() for d in self.wire_demand], self.via_demand.copy())

    def restore_demand(self, snapshot: Tuple[List[np.ndarray], np.ndarray]) -> None:
        """Restore demand arrays from :meth:`demand_snapshot`."""
        wire, via = snapshot
        for layer in range(self.n_layers):
            np.copyto(self.wire_demand[layer], wire[layer])
        np.copyto(self.via_demand, via)
        self.dirty.append(DirtyLog.ALL)

    def reset_demand(self) -> None:
        """Zero all demand in place and mark everything dirty.

        Writes through the current arrays, which is what lets a warm
        :class:`~repro.session.session.RoutingSession` replay a route
        from scratch without rebuilding its graph.
        """
        self.demand_flat.fill(0.0)
        self.dirty.append(DirtyLog.ALL)

    def __repr__(self) -> str:
        return (
            f"GridGraph({self.nx}x{self.ny}, L={self.n_layers}, "
            f"overflow={self.total_overflow():.1f})"
        )
