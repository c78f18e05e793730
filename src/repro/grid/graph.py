"""The 3-D global-routing grid graph (capacity / demand bookkeeping).

Each metal layer is a 2-D array of G-cells with a preferred direction.
Wire edges exist between direction-adjacent G-cells on the same layer;
via edges connect the same 2-D cell on vertically adjacent layers
(Fig. 1).  Capacity is the number of tracks an edge offers, demand is
the number of tracks routed nets consume; ``demand > capacity`` is an
overflow, which the contest metric (and the paper's Eq. 15) counts as
*shorts*.

Demand is written in place and nothing records where it changed: the
readers price it when they need it — a
:class:`~repro.grid.cost.CostQuery` on ``rebuild``, a maze search over
its own window when it starts (:meth:`~repro.grid.cost.CostModel.window_steps`).
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Tuple

import numpy as np

from repro.grid.layers import LayerStack


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
        direction.  A zero-length segment adds nothing.
        """
        self.check_wire(layer, x1, y1, x2, y2)
        if x1 == x2 and y1 == y2:
            return
        if y1 == y2:
            lo, hi = sorted((x1, x2))
            self.wire_demand[layer][lo:hi, y1] += amount
        else:
            lo, hi = sorted((y1, y2))
            self.wire_demand[layer][x1, lo:hi] += amount

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

    def demand_equals(self, other: "GridGraph") -> bool:
        """True when ``other`` (a grid of the same design) carries
        bit-identical wire and via demand."""
        return bool(np.array_equal(self.demand_flat, other.demand_flat))

    def reset_demand(self) -> None:
        """Zero all demand in place.

        Writes through the current arrays, which is what lets a warm
        :class:`~repro.session.session.RoutingSession` replay a route
        from scratch without rebuilding its graph.
        """
        self.demand_flat.fill(0.0)

    def __repr__(self) -> str:
        return (
            f"GridGraph({self.nx}x{self.ny}, L={self.n_layers}, "
            f"overflow={self.total_overflow():.1f})"
        )
