"""CUGR-style edge cost model and O(1) segment-cost queries.

The routers never walk edges one by one to price a candidate path.
Instead :class:`CostQuery` materialises, per layer, the cost of every
wire edge under the current demand, builds prefix sums along each
layer's preferred direction, and answers *whole-segment* costs with two
array lookups.  Batched variants gather the costs of thousands of
candidate segments (across all layers) in a handful of array-backend
operations — this is exactly what lets the paper's L/Z-shape dynamic
programs run as dense vector/matrix min-plus flows on the simulated GPU.

Cost scheme (after CUGR [3], Sec. III-D of the paper):

* wire edge: ``unit_wire_cost + congestion(demand, capacity)``
* via edge:  ``unit_via_cost + congestion(via_demand, via_capacity)``
* ``congestion(d, c) = slope / (1 + exp(-steepness * (d + 0.5 - c)))
  + overflow_weight * max(0, d + 1 - c)``

The logistic term reproduces CUGR's probabilistic resource model near
capacity; the linear term keeps every *additional* overflow expensive so
the routers do not treat saturated edges as free.

Backend split: edge *costs* (which involve ``exp``) are always computed
host-side with NumPy — transcendentals are the one place different
substrates could diverge by ULPs, so every backend consumes the same
float64 edge costs.  The prefix sums are host ``cumsum`` scans too;
:meth:`CostQuery.sync` uploads the finished tables, and the batched
gathers run on the configured :class:`~repro.backend.ArrayBackend`
(batched queries return backend arrays), which is why identical
routing falls out of every backend bit for bit.

A snapshot has two kinds of rebuild, into one set of persistent
tables.  A *full* rebuild recomputes every edge cost and prefix from
current demand and pins the result as the snapshot's reference.  A
*masked* rebuild (the pattern stage's per-level snapshot) turns a box
list and its read :class:`Footprint` into one :class:`_MaskPlan` of
flat cell indices and runs a fixed number of whole-batch array
operations over it, whatever the number of boxes: it restores the
previous plan's cells from the reference and repaints the new ones from
demand.  The masked contract: live on the footprint, equal to the last
full rebuild elsewhere; any superset of the lines a caller reads is
exact for it.  A repainted
prefix entry is produced by the same left-to-right sequence of IEEE
additions a from-scratch scan performs (the scan restarts from the
reference prefix entry upstream of the line, folded into its first
element), so every table is bit-identical to one built from scratch —
asserted across backends by ``tests/test_cost_engine.py`` against the
from-scratch oracle in ``tests/cost_oracle.py``.  Every rebuild that
writes cost bytes books them as one upload into the tracker
(``gpu.cost_upload_bytes``, ``gpu.cost_uploads``), which the zero-copy
transfer figures are priced from (:func:`repro.metrics.transfer_stats`).

The maze engines take no snapshot: each net prices its own window from
current demand with :meth:`CostModel.window_planes` — the ``2 L - 1``
step planes that hold edges (each layer's wire step along its own
direction, each via step), gathered through the grid's cached step
layout (:func:`~repro.grid.route.step_layout`) and priced in one
``congestion`` call — bit-equal to the matching slices of a full
rebuild.  :meth:`CostModel.window_steps` lays them out as the ``+x``,
``+y`` and ``+layer`` step out of every window node, ``inf`` where a
step has no edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro import metrics
from repro.backend import ArrayBackend, get_backend
from repro.grid.graph import GridGraph
from repro.grid.route import step_layout
from repro.utils.arrays import unique_sorted
from repro.utils.timing import Tracker

@dataclass
class CostModel:
    """Tunable parameters of the edge cost scheme."""

    unit_wire_cost: float = 1.0
    unit_via_cost: float = 2.0
    congestion_slope: float = 16.0
    congestion_steepness: float = 3.0
    overflow_weight: float = 64.0

    def congestion(self, demand: np.ndarray, capacity: np.ndarray) -> np.ndarray:
        """Return the congestion cost component, elementwise.

        Written with direct ufunc calls and in-place updates: the maze
        evaluates this on every search window and the masked snapshot
        on small gathers, where ``np.clip``'s dispatch and the
        temporaries would dominate.
        Every step is value-identical to the textbook form
        ``slope/(1+exp(clip(-k*(d+0.5-c), -60, 60))) + w*max(d+1-c, 0)``
        (only commutative reorderings), so snapshots stay bit-identical.
        """
        exponent = demand + 0.5
        exponent -= capacity
        exponent *= -self.congestion_steepness
        # Clip the exponent so saturated edges cannot overflow exp().
        np.maximum(exponent, -60.0, out=exponent)
        np.minimum(exponent, 60.0, out=exponent)
        np.exp(exponent, out=exponent)
        exponent += 1.0
        logistic = np.divide(self.congestion_slope, exponent, out=exponent)
        overflow = demand + 1.0
        overflow -= capacity
        np.maximum(overflow, 0.0, out=overflow)
        overflow *= self.overflow_weight
        logistic += overflow
        return logistic

    def wire_edge_costs(self, graph: GridGraph, layer: int) -> np.ndarray:
        """Return the cost array of every wire edge on ``layer``."""
        demand = graph.wire_demand[layer]
        capacity = graph.wire_capacity[layer]
        return self.unit_wire_cost + self.congestion(demand, capacity)

    def via_edge_costs(self, graph: GridGraph) -> np.ndarray:
        """Return the ``(L-1, nx, ny)`` cost array of every via edge."""
        return self.unit_via_cost + self.congestion(graph.via_demand, graph.via_capacity)

    def window_planes(self, graph: GridGraph, region: Tuple[int, int, int, int]) -> np.ndarray:
        """Price the edges of a G-cell window from current demand, one
        plane per family of steps that has edges.

        Returns the ``(2 L - 1, W, H)`` costs of the window ``(x0, y0,
        x1, y1)`` (corners inclusive) in the planes of
        :class:`~repro.grid.route.StepLayout`: entry ``[p, i, j]`` prices
        plane ``p``'s step out of G-cell ``(x0+i, y0+j)``.  Where that
        step leaves the window (the window's far side along the plane's
        step) the entry is finite and meaningless.  One slice of the
        layout, one gather each of demand and capacity, one
        :meth:`congestion` and the wire and via unit-cost adds; the
        congestion terms are elementwise, so every entry of an edge is
        bit-equal to the same edge of :meth:`wire_edge_costs` /
        :meth:`via_edge_costs`.
        """
        return self._price_planes(graph, step_layout(graph).where, region)

    def _price_planes(
        self, graph: GridGraph, where: np.ndarray, region: Tuple[int, int, int, int]
    ) -> np.ndarray:
        """:meth:`window_planes` from the layout's ``where``."""
        x0, y0, x1, y1 = region
        where = where[:, x0 : x1 + 1, y0 : y1 + 1]
        cost = self.congestion(graph.demand_flat.take(where), graph.capacity_flat.take(where))
        n_layers = graph.n_layers
        cost[:n_layers] += self.unit_wire_cost
        cost[n_layers:] += self.unit_via_cost
        return cost

    def window_steps(
        self,
        graph: GridGraph,
        region: Tuple[int, int, int, int],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Price the steps out of every node of a G-cell window from
        current demand.

        Returns the ``(3, L, W, H)`` costs for the window ``(x0, y0, x1,
        y1)`` (corners inclusive) — into ``out`` when given: ``[0]`` the
        ``+x`` step out of node ``[layer, i, j]`` (G-cell ``(x0+i,
        y0+j)``), ``[1]`` its ``+y`` step and ``[2]`` its ``+layer``
        step; ``inf`` where the step has no edge in the window (a layer
        of the other direction, the window's far side, the top layer).
        The :meth:`window_planes` written into an ``inf`` table at their
        owners, then ``inf`` on the far side.
        """
        where, _, (kind, layer) = step_layout(graph)
        planes = self._price_planes(graph, where, region)
        steps = np.empty((3, graph.n_layers) + planes.shape[1:]) if out is None else out
        steps[...] = np.inf
        steps[kind, layer] = planes
        steps[0, :, -1] = np.inf
        steps[1, :, :, -1] = np.inf
        return steps


class Footprint(NamedTuple):
    """The lines a masked rebuild paints (see :meth:`CostQuery.rebuild`),
    one int column per line, its box index first: ``rows (2, R)`` — box,
    ``y``; ``columns (2, C)`` — box, ``x``; ``pillars (2, P)`` — box,
    G-cell ``x * ny + y`` of a via pillar.  A wire line spans its
    clipped box.  Where boxes overlap the line listed last owns a cell,
    so lines go in box order."""

    rows: np.ndarray
    columns: np.ndarray
    pillars: np.ndarray


class _MaskPlan(NamedTuple):
    """Index plan of one masked rebuild (see :meth:`CostQuery.rebuild`):
    everything the engine needs to know about a box list and its read
    footprint, as index arrays into the engine's flat ``(3, L, nx, ny)``
    tables (x-scan wires, y-scan wires, via pillars), so the rebuild is a
    fixed sequence of whole-batch array operations.

    ``cells`` lists the painted edges family by family, plane by plane
    and, inside a plane, in line order — so a scatter leaves the *last*
    line's value where boxes overlap, as a box-by-box loop would; the
    first ``n_wire`` are wire edges.  ``demand`` holds the same edges'
    positions in the graph's flat demand and capacity buffers.  The
    edges are also cut into scan lines (a box row along a wire layer's
    direction; a via pillar), padded to the widest: ``lines`` holds
    their table positions with the padding pointed at a cell that is
    always zero, ``anchor`` the cell just upstream of each line, and
    ``live`` the positions of the real entries in ``lines``, in
    ``cells`` order.  ``tally`` is the sorted distinct painted cells of
    one plane per family (``family * nx * ny + cell``), ``counts`` how
    many of them each family has.
    """

    cells: np.ndarray  # (N,)
    demand: np.ndarray  # (N,)
    n_wire: int
    lines: np.ndarray  # (R, W)
    anchor: np.ndarray  # (R,)
    live: np.ndarray  # (N,)
    tally: np.ndarray
    counts: Tuple[int, int, int]


def _every_line(lo, count):
    """``(box, cross)`` of every line of every box, in box order: box
    ``i`` has ``count[i]`` lines at cross coordinates ``lo[i] ..``."""
    box = np.repeat(np.arange(count.size), count)
    first = np.cumsum(count) - count
    return box, lo[box] + np.arange(box.size) - first[box]


def _check_inside(box, cross, lo, count) -> None:
    """Raise unless every ``cross[i]`` lies in box ``box[i]``'s extent."""
    # A negative offset wraps to a huge unsigned one.
    if np.any((cross - lo[box]).view(np.uintp) >= count[box]):
        raise ValueError("a read line lies outside its (clipped) box")


class CostQuery:
    """Prefix-sum accelerated segment/via-stack cost queries.

    The query is a *snapshot*: costs reflect the demand at the last
    :meth:`rebuild`.  The full rebuild the constructor makes is the
    pattern stage's pinned reference; the stage rebuilds masked once per
    scheduler batch (in-batch nets do not conflict, so frozen costs are
    exact).

    ``backend`` selects the array substrate for the prefix sums and the
    batched queries; scalar queries and the raw ``wire_cost``/``via_cost``
    arrays always stay host-side NumPy.  Batched queries return backend
    arrays — callers own the ``to_numpy`` boundary.  Rebuilds are
    counted into ``tracker`` (a private one when None).
    """

    def __init__(
        self,
        graph: GridGraph,
        model: CostModel,
        backend: Optional[ArrayBackend] = None,
        tracker: Optional[Tracker] = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.backend = backend if backend is not None else get_backend("numpy")
        self.n_layers = graph.n_layers
        h_allowed = np.array(
            [graph.stack.is_horizontal(l) for l in range(self.n_layers)], dtype=bool
        )
        self._h_allowed = h_allowed
        self._v_allowed = ~h_allowed
        # Layers a segment may use, by kind: degenerate (any), H, V.
        self._allowed_by_kind = np.stack(
            [np.ones_like(h_allowed), h_allowed, ~h_allowed]
        )
        self._h_layers = [int(l) for l in np.flatnonzero(h_allowed)]
        self._v_layers = [int(l) for l in np.flatnonzero(~h_allowed)]
        # Masked plans (see _mask_plan): per scan family, the per-layer
        # part of each line's (table start, demand start, G-cell count)
        # and the step of its progression.
        nx, ny, n_layers = graph.nx, graph.ny, self.n_layers
        plane, offset = nx * ny, np.array(graph.edge_offset)
        h_layers, v_layers = np.array(self._h_layers, dtype=np.intp), np.array(self._v_layers, dtype=np.intp)
        self._line_bases = (
            np.stack((h_layers * plane, offset[h_layers] - ny, 0 * h_layers))[:, :, None],
            np.stack(((n_layers + v_layers) * plane, offset[v_layers] - 1, 0 * v_layers))[:, :, None],
            np.array([[2 * n_layers * plane], [offset[-1] - plane], [n_layers]]),
        )
        self._line_steps = np.array([ny, 1, plane])
        # Persistent padded edge tables, one plane stack per scan family
        # (x-scan wires, y-scan wires, vias) in one array each for edges
        # and prefixes.  Row/column 0 pads the exclusive prefix and is
        # never written; the public cost arrays are views of the rest,
        # so a cost write needs no mirroring into the scan input.
        self._edge_all = np.zeros((3, n_layers, nx, ny))
        self._h_edge, self._v_edge, self._z_edge = self._edge_all
        self.wire_cost: List[np.ndarray] = [
            self._h_edge[layer, 1:, :] if h_allowed[layer] else self._v_edge[layer, :, 1:]
            for layer in range(n_layers)
        ]
        self.via_cost = self._z_edge[1:]
        self._prefix_all = np.zeros((3, n_layers, nx, ny))
        # Cumulative along x, along y and along the layer axis.
        self._h_prefix, self._v_prefix, self._via_prefix = self._prefix_all
        # Masked mode: flat views of the edge and prefix tables, flat
        # copies of them holding the reference (the last full rebuild)
        # and the plan whose cells are now off-reference.
        self._edge_flat = self._edge_all.reshape(-1)
        self._prefix_flat = self._prefix_all.reshape(-1)
        self._ref_edge = np.empty_like(self._edge_flat)
        self._ref_prefix = np.empty_like(self._prefix_flat)
        self._masked_plan: Optional[_MaskPlan] = None
        # Device twins of the three prefix tables.  On a device_is_host
        # backend they are the host tables themselves.
        self._h_prefix_dev = self._v_prefix_dev = self._via_prefix_dev = None
        if self.backend.device_is_host:
            self._h_prefix_dev = self._h_prefix
            self._v_prefix_dev = self._v_prefix
            self._via_prefix_dev = self._via_prefix
        self._dev_stale = False
        self.tracker = tracker if tracker is not None else Tracker()
        self.rebuild()

    # ------------------------------------------------------------------ #
    # Snapshot construction
    # ------------------------------------------------------------------ #
    def rebuild(self, boxes=None, reads=None) -> None:
        """Refresh the snapshot from current demand.

        Edge costs and prefix scans are computed host-side (see module
        docstring); the first batched query after a rebuild uploads the
        tables to where the kernels gather from them.  Without
        ``boxes`` every edge cost and prefix is recomputed, and the
        result is pinned as the reference of later masked rebuilds.

        With ``boxes`` (a sequence of :class:`~repro.grid.geometry.Rect`)
        the rebuild is *masked*: costs are live (recomputed from current
        demand) on the read footprint ``reads`` — a :class:`Footprint`;
        ``None`` means every line of every box — and equal the last full
        rebuild elsewhere; any superset of the lines a caller reads is
        exact for it.  A live wire line's prefix is the reference prefix
        at its box's upstream face plus a seeded scan of the line's own
        live edge costs.  A query on footprint lines of one box (the
        batched DP's queries: a net's segments never leave its bounding
        box) is therefore a bit-exact function of the reference and that
        box's demand alone — independent of demand outside the boxes,
        *and* of which other boxes or lines share the mask.  The
        scheduler relies on the first property (non-conflicting tasks
        see identical snapshots no matter which finished first); the
        session's per-net route cache relies on the second (a net's DP
        output does not depend on the chunk composition an edit
        reshuffles).  A read line outside its (clipped) box raises
        :class:`ValueError`.

        A masked rebuild takes a number of array operations that
        depends on the layer count only: boxes and footprint become one
        :class:`_MaskPlan`; the previous plan's cells are copied back
        from the reference tables; congestion is evaluated once on the
        demand of all footprint edges, gathered from the graph's flat
        demand buffer in one take; and every line's anchored prefix, wire
        or via, comes out of one row-wise ``cumsum`` over the padded scan
        lines.  Padding only ever
        *follows* a line's real entries, so each prefix entry is the
        same left-to-right chain of additions a from-scratch box-by-box
        scan performs — every bit agrees.
        """
        start = perf_counter()
        try:
            if boxes is None:
                self._full_refresh()
            else:
                self._masked_incremental(boxes, reads)
        finally:
            self.tracker.get_timer(metrics.COST_S).add(perf_counter() - start)

    def _upload_prefix(self, dev, host: np.ndarray):
        """Return the device twin of prefix plane ``host``.

        On a ``device_is_host`` backend the host array *is* the twin
        (aliased, so in-place host writes stay visible for free).  On
        a real device backend the first upload (or a grid-shape change)
        allocates; every later rebuild copies in place into the
        existing plane through ``copyto`` — steady-state rebuilds
        allocate no device memory.
        """
        xp = self.backend
        if xp.device_is_host:
            return host
        if dev is not None and xp.shape(dev) == tuple(host.shape):
            xp.copyto(dev, host)
            return dev
        return xp.asarray(host)

    # ------------------------------------------------------------------ #
    # Snapshot maintenance
    # ------------------------------------------------------------------ #
    def _full_refresh(self) -> None:
        """Recompute everything into the persistent buffers and pin the
        result as the reference."""
        graph, model = self.graph, self.model
        for layer in range(self.n_layers):
            np.copyto(self.wire_cost[layer], model.wire_edge_costs(graph, layer))
        if self.via_cost.size:
            np.copyto(self.via_cost, model.via_edge_costs(graph))
        np.cumsum(self._h_edge, axis=1, out=self._h_prefix)
        np.cumsum(self._v_edge, axis=2, out=self._v_prefix)
        np.cumsum(self._z_edge, axis=0, out=self._via_prefix)
        self._dev_stale = not self.backend.device_is_host
        np.copyto(self._ref_edge, self._edge_flat)
        np.copyto(self._ref_prefix, self._prefix_flat)
        self._masked_plan = None
        wire_n = sum(int(a.size) for a in self.wire_cost)
        via_n = int(self.via_cost.size)
        self._count(metrics.COST_FULL_REBUILDS, wire_n, via_n, wire_n + via_n)

    def _masked_incremental(self, boxes, reads) -> None:
        """Masked rebuild as whole-batch array operations on one plan.

        Outside the previous plan's cells the tables equal the
        reference, so copying those cells back from the reference and
        repainting the new plan's cells from demand reproduces a
        from-scratch masked rebuild bit for bit.

        Tallies: the refreshed-edge counters count the restores too —
        they measure host-side recompute work, which the restores really
        do.  The upload counts only the *fresh* cells: restores copy
        from the reference, which is device-resident since the full
        rebuild's upload, so refreshing the slab in place moves no new
        host bytes for them.  Both are counts of distinct painted cells,
        so overlapping boxes are tallied once.
        """
        previous, plan = self._masked_plan, self._mask_plan(boxes, reads)
        edge, prefix = self._edge_flat, self._prefix_flat
        if previous is not None:
            edge[previous.cells] = self._ref_edge[previous.cells]
            prefix[previous.cells] = self._ref_prefix[previous.cells]
        self._paint(plan)
        self._masked_plan = plan
        self._dev_stale = not self.backend.device_is_host
        wire_n, via_n = self._tally_edges(plan.counts)
        upload_n = wire_n + via_n
        if previous is not None:
            both = unique_sorted(np.concatenate((previous.tally, plan.tally)))
            wire_n, via_n = self._tally_edges(self._family_counts(both))
        self._count(metrics.COST_MASKED_REBUILDS, wire_n, via_n, upload_n)

    def _count(self, kind: str, wire_n: int, via_n: int, upload_n: int) -> None:
        """Count one rebuild of ``kind``, the edges it refreshed, and —
        when it wrote any — the ``upload_n`` edge costs it uploads."""
        tracker = self.tracker
        tracker.get_counter(kind).increment()
        tracker.get_counter(metrics.COST_REFRESHED_WIRE_EDGES).increment(wire_n)
        tracker.get_counter(metrics.COST_REFRESHED_VIA_EDGES).increment(via_n)
        if upload_n:
            tracker.get_counter(metrics.COST_UPLOAD_BYTES).increment(
                upload_n * self.via_cost.itemsize
            )
            tracker.get_counter(metrics.COST_UPLOADS).increment()

    def _family_counts(self, tally: np.ndarray) -> Tuple[int, int, int]:
        """Per scan family, how many of the sorted ``tally`` codes it holds."""
        plane = self.graph.nx * self.graph.ny
        h_end, v_end = np.searchsorted(tally, (plane, 2 * plane)).tolist()
        return h_end, v_end - h_end, int(tally.size) - v_end

    def _tally_edges(self, counts: Tuple[int, int, int]) -> Tuple[int, int]:
        """(wire, via) edge counts of painted in-plane cells per family."""
        h_cells, v_cells, via_cells = counts
        wire_n = h_cells * len(self._h_layers) + v_cells * len(self._v_layers)
        return wire_n, via_cells * (self.n_layers - 1)

    # -- masked-rebuild plan -------------------------------------------- #
    def _mask_plan(self, boxes, reads: Optional[Footprint] = None) -> _MaskPlan:
        """Turn a box list and its read footprint (None: every line of
        every box) into the index plan of one masked rebuild.

        Every painted line — a box row on each x-scan layer, a box
        column on each y-scan layer, a via pillar — is an arithmetic
        progression in the tables *and* in the graph's flat demand
        buffer: G-cell ``k`` of the line (``k = 0`` its anchor) sits at
        ``table + k * step`` and its edge at ``demand + k * dstep``.  So
        the plan is one padded progression per line, built for all
        lines of all families at once.
        """
        graph = self.graph
        nx, ny, n_layers = graph.nx, graph.ny, self.n_layers
        plane = nx * ny
        rect = np.array([b.as_tuple() for b in boxes], dtype=np.intp).reshape(-1, 4)
        lo = np.maximum(rect[:, :2], 0)
        # Clipped extent; a box wholly off the grid holds no line.
        span = np.maximum(np.minimum(rect[:, 2:], (nx - 1, ny - 1)) - lo + 1, 0)
        x0, y0, w, h = lo[:, 0], lo[:, 1], span[:, 0], span[:, 1]
        if reads is None:
            (row_box, y), (col_box, x) = _every_line(y0, h), _every_line(x0, w)
            k = np.arange(h.max(initial=0))
            via = ((x * ny + y0[col_box])[:, None] + k)[k < h[col_box][:, None]]
        else:
            (row_box, y), (col_box, x), (box, via) = reads
            # All four axis checks at once: extents stacked per check.
            n = rect.shape[0]
            _check_inside(
                np.concatenate((row_box, col_box + n, box + 2 * n, box + 3 * n)),
                np.concatenate((y, x, via // ny, via % ny)),
                np.concatenate((y0, x0, x0, y0)),
                np.concatenate((h, w, w, h)),
            )
        # One progression per (layer, line), family by family, layer by
        # layer, line by line, as rows (table start, demand start, G-cell
        # count): a per-layer base plus a per-line value.  A layer's
        # demand array is its table plane minus the pad row (x-scan: ny
        # cells) or pad column (y-scan: one cell per row).
        h_base, v_base, via_base = self._line_bases
        row_start = x0[row_box] * ny + y
        col_start = x * ny + y0[col_box]
        first, demand, count = np.concatenate((
            (h_base + np.array((row_start, row_start, w[row_box]))[:, None]).reshape(3, -1),
            (v_base + np.array((col_start, col_start - x, h[col_box]))[:, None]).reshape(3, -1),
            via_base + np.array((via, via, 0 * via)),
        ), axis=1)
        step = np.repeat(
            self._line_steps,
            (len(self._h_layers) * y.size, len(self._v_layers) * x.size, via.size),
        )
        # Edges are G-cells 1 .. count - 1 of a line; padding points at
        # table cell 0, which is always zero.
        k = np.arange(1, max(int(count.max(initial=0)), 1))
        along = step[:, None] * k
        valid = k < count[:, None]
        lines = np.where(valid, first[:, None] + along, 0)
        live = np.flatnonzero(valid)
        cells = lines.reshape(-1)[live]
        family = cells // (n_layers * plane)
        tally = unique_sorted(family * plane + cells % plane)
        return _MaskPlan(
            cells=cells,
            demand=(demand[:, None] + along).reshape(-1)[live],
            n_wire=int(np.searchsorted(family, 2)),
            lines=lines,
            anchor=first,
            live=live,
            tally=tally,
            counts=self._family_counts(tally),
        )

    def _paint(self, plan: _MaskPlan) -> None:
        """Recompute the plan's edge costs from demand and rewrite their
        anchored prefix entries."""
        if not plan.cells.size:
            return
        graph, model = self.graph, self.model
        cost = model.congestion(
            graph.demand_flat[plan.demand], graph.capacity_flat[plan.demand]
        )
        cost[: plan.n_wire] += model.unit_wire_cost
        cost[plan.n_wire :] += model.unit_via_cost
        self._edge_flat[plan.cells] = cost
        # Padding reads table cell 0 (always zero) and trails every
        # line, so the row-wise scan adds exactly what a per-box scan
        # adds, in the same order.
        lines = self._edge_flat[plan.lines]
        lines[:, 0] += self._ref_prefix[plan.anchor]
        np.cumsum(lines, axis=1, out=lines)
        self._prefix_flat[plan.cells] = lines.reshape(-1)[plan.live]

    def sync(self) -> None:
        """Make the device prefix twins current.  Uploads are lazy —
        the first batched query after a rebuild makes them; tests and
        benchmarks that inspect the device tables call this directly."""
        if self._dev_stale:
            self._h_prefix_dev = self._upload_prefix(
                self._h_prefix_dev, self._h_prefix
            )
            self._v_prefix_dev = self._upload_prefix(
                self._v_prefix_dev, self._v_prefix
            )
            self._via_prefix_dev = self._upload_prefix(
                self._via_prefix_dev, self._via_prefix
            )
            self._dev_stale = False

    # ------------------------------------------------------------------ #
    # Scalar queries (host side)
    # ------------------------------------------------------------------ #
    def wire_segment_cost(self, layer: int, x1: int, y1: int, x2: int, y2: int) -> float:
        """Return the cost of a straight segment on ``layer``.

        Returns ``inf`` when the segment orientation does not match the
        layer's preferred direction; 0.0 for a degenerate (point) segment.
        """
        if x1 == x2 and y1 == y2:
            return 0.0
        horizontal = y1 == y2
        if horizontal != self.graph.stack.is_horizontal(layer):
            return float("inf")
        if horizontal:
            lo, hi = sorted((x1, x2))
            return float(self._h_prefix[layer, hi, y1] - self._h_prefix[layer, lo, y1])
        lo, hi = sorted((y1, y2))
        return float(self._v_prefix[layer, x1, hi] - self._v_prefix[layer, x1, lo])

    def via_stack_cost(self, x: int, y: int, lo: int, hi: int) -> float:
        """Return the cost of a via stack spanning layers ``lo``..``hi``."""
        if lo > hi:
            lo, hi = hi, lo
        return float(self._via_prefix[hi, x, y] - self._via_prefix[lo, x, y])

    # ------------------------------------------------------------------ #
    # Batched queries (the GPU gather primitives; return backend arrays)
    # ------------------------------------------------------------------ #
    def segment_cost_layers(self, x1, y1, x2, y2):
        """Return a ``(B, L)`` matrix of per-layer costs for ``B`` segments.

        Each segment must be axis-aligned (or degenerate).  Entries for
        layers whose direction does not match the segment orientation are
        ``inf``; degenerate segments cost 0 on every layer (no wire needed,
        any layer may carry the point).
        """
        xp = self.backend
        x1 = np.asarray(x1, dtype=int)
        y1 = np.asarray(y1, dtype=int)
        x2 = np.asarray(x2, dtype=int)
        y2 = np.asarray(y2, dtype=int)
        if not (x1.shape == y1.shape == x2.shape == y2.shape):
            raise ValueError("segment coordinate arrays must share a shape")
        # 0 degenerate, 1 horizontal, 2 vertical, 3 neither.
        horizontal = x1 != x2
        kind = horizontal + 2 * (y1 != y2)
        if kind.max(initial=0) > 2:
            raise ValueError("segments must be axis-aligned")
        self.sync()

        # Gather both orientations for every segment, then select; the
        # wasted gather is what keeps the flow branch-free (lock-step
        # lanes on the device do the same).
        h_hi = xp.gather_points(self._h_prefix_dev, np.maximum(x1, x2), y1)
        h_lo = xp.gather_points(self._h_prefix_dev, np.minimum(x1, x2), y1)
        v_hi = xp.gather_points(self._v_prefix_dev, x1, np.maximum(y1, y2))
        v_lo = xp.gather_points(self._v_prefix_dev, x1, np.minimum(y1, y2))
        h_cost = xp.subtract(h_hi, h_lo)  # (B, L)
        v_cost = xp.subtract(v_hi, v_lo)  # (B, L)

        # A degenerate segment takes the vertical branch: its v_cost is
        # prefix - prefix = 0.0, and every layer may carry the point.
        horizontal = xp.asarray(horizontal[:, None], dtype="bool")
        allowed = xp.asarray(self._allowed_by_kind[kind], dtype="bool")
        cost = xp.where(horizontal, h_cost, v_cost)
        return xp.where(allowed, cost, float("inf"))

    def via_prefix_at(self, x, y):
        """Return ``(B, L)`` cumulative via costs at each 2-D point.

        ``result[b, l]`` is the cost of the via stack from layer 0 up to
        layer ``l`` at point ``b``; interval stacks are differences of two
        columns.  This is the primitive behind both the via matrices of
        Eq. 6/12/13 and the via-interval DP that combines children costs.
        """
        x = np.asarray(x, dtype=int)
        y = np.asarray(y, dtype=int)
        self.sync()
        return self.backend.gather_points(self._via_prefix_dev, x, y)

    def via_matrix(self, x, y):
        """Return ``(B, L, L)`` via-stack costs between every layer pair.

        ``result[b, i, j] = cv(point_b, i, j)`` — the cost of the vias
        needed to move from layer ``i`` to layer ``j`` at point ``b``
        (0 when ``i == j``).
        """
        xp = self.backend
        prefix = self.via_prefix_at(x, y)  # (B, L)
        return xp.abs(xp.subtract(xp.expand_dims(prefix, 2), xp.expand_dims(prefix, 1)))


__all__ = [
    "CostModel",
    "CostQuery",
    "Footprint",
]
