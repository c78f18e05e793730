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
float64 edge costs.  The prefix sums and batched gathers then run on
the configured :class:`~repro.backend.ArrayBackend` (``rebuild`` is the
host-to-device upload; batched queries return backend arrays), which is
why identical routing falls out of every backend bit for bit.

Two snapshot-maintenance engines share this query interface:

* ``"full"`` — recompute every edge cost and prefix table from scratch
  on each :meth:`CostQuery.rebuild` (the oracle; O(L*nx*ny) per call);
* ``"incremental"`` — keep persistent tables and rewrite only what a
  rebuild can have changed.  *Unmasked* rebuilds drain the grid graph's
  dirty-rect log, recompute edge costs inside dirty (or requested)
  regions, and patch the prefix tables by rewriting only the affected
  row/column suffixes.  *Masked* rebuilds (a box list over a pinned
  reference — the pattern stage's per-level snapshot) turn the whole
  box list into one :class:`_MaskPlan` of flat cell indices and run a
  fixed number of whole-batch array operations over it, whatever the
  number of boxes.
  Either way a prefix entry is produced by the same left-to-right
  sequence of IEEE additions the from-scratch scan performs (the scan
  restarts from the last clean / reference prefix entry, folded into
  the first rewritten element), so results are bit-identical to the
  full oracle — asserted across backends by
  ``tests/test_cost_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.grid.geometry import rect_union_area, rects_overlap
from repro.grid.graph import GridGraph

#: Names accepted by ``RouterConfig.cost_engine`` / ``--cost-engine``.
COST_ENGINES = ("full", "incremental")

#: Pending-rect lists longer than this collapse to their bounding rect
#: (conservative overshoot keeps bookkeeping bounded).
_PENDING_CAP = 16

IntRect = Tuple[int, int, int, int]


class StaleCostError(RuntimeError):
    """A query touched a region whose costs were never refreshed.

    Raised by the incremental engine when a prefix query's span
    intersects a dirty rect that a window-limited rebuild deliberately
    left pending.  Serving the stale value silently would break the
    snapshot contract; rebuild without a window (or with a covering
    window) to clear the condition.
    """


@dataclass
class CostEngineStats:
    """Cumulative snapshot-maintenance counters of one :class:`CostQuery`."""

    full_rebuilds: int = 0
    masked_rebuilds: int = 0
    incremental_rebuilds: int = 0
    refreshed_wire_edges: int = 0
    refreshed_via_edges: int = 0
    seconds: float = 0.0

    @property
    def rebuilds(self) -> int:
        """Total rebuild calls of any kind."""
        return self.full_rebuilds + self.masked_rebuilds + self.incremental_rebuilds

    @property
    def refreshed_edges(self) -> int:
        """Total edge-cost entries recomputed or rewritten."""
        return self.refreshed_wire_edges + self.refreshed_via_edges

    def copy(self) -> "CostEngineStats":
        """Return an independent snapshot of the counters."""
        return replace(self)

    def delta(self, earlier: "CostEngineStats") -> "CostEngineStats":
        """Return the counter deltas since an ``earlier`` snapshot."""
        return CostEngineStats(
            full_rebuilds=self.full_rebuilds - earlier.full_rebuilds,
            masked_rebuilds=self.masked_rebuilds - earlier.masked_rebuilds,
            incremental_rebuilds=(
                self.incremental_rebuilds - earlier.incremental_rebuilds
            ),
            refreshed_wire_edges=(
                self.refreshed_wire_edges - earlier.refreshed_wire_edges
            ),
            refreshed_via_edges=self.refreshed_via_edges - earlier.refreshed_via_edges,
            seconds=self.seconds - earlier.seconds,
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat summary used by results and benchmark harnesses."""
        return {
            "rebuilds": float(self.rebuilds),
            "full_rebuilds": float(self.full_rebuilds),
            "masked_rebuilds": float(self.masked_rebuilds),
            "incremental_rebuilds": float(self.incremental_rebuilds),
            "refreshed_edges": float(self.refreshed_edges),
            "refreshed_wire_edges": float(self.refreshed_wire_edges),
            "refreshed_via_edges": float(self.refreshed_via_edges),
            "seconds": self.seconds,
        }


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

        Written with direct ufunc calls and in-place updates: the
        incremental engine evaluates this on many small dirty slabs,
        where ``np.clip``'s dispatch and the temporaries would dominate.
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


class _ScanPlan(NamedTuple):
    """One scan family of a :class:`_MaskPlan`: the in-box edges of all
    layers of one wire direction, or all in-box via pillars.

    Indices are flat positions in the engine's ``(L, nx, ny)`` tables
    unless noted.  ``cells`` lists the edges plane by plane and, inside
    a plane, in box order — so a scatter leaves the *last* box's value
    where boxes overlap, as a box-by-box loop would.  The same edges are
    also cut into scan lines (a box row along a wire layer's direction;
    a via pillar), padded to the widest: ``lines`` holds their table
    positions with the padding pointed at a cell that is always zero,
    ``anchor`` the cell just upstream of each line, and ``live`` the
    positions of the real entries inside one plane's ``R * W`` block,
    in ``cells`` order.
    """

    demand: np.ndarray  # (N,) positions in one (flattened) demand array
    cells: np.ndarray  # (planes * N,)
    lines: np.ndarray  # (planes, R, W)
    anchor: np.ndarray  # (planes, R)
    live: np.ndarray  # (N,)


class _MaskPlan(NamedTuple):
    """Index plan of one masked rebuild (see :meth:`CostQuery.rebuild`):
    everything the engine needs to know about a box list, as index
    arrays, so the rebuild is a fixed sequence of whole-batch array
    operations."""

    #: x-scan wires, y-scan wires, via pillars; None where no box holds
    #: such an edge.
    scans: Tuple[Optional[_ScanPlan], Optional[_ScanPlan], Optional[_ScanPlan]]
    #: The three families' cells within one plane, flat in the
    #: ``(3, nx*ny)`` tally mask.
    tally: np.ndarray


def _scan_lines(lo, count, start, width):
    """Cut boxes into padded scan lines.

    Box ``i`` contributes ``count[i]`` lines at cross coordinates
    ``lo[i] ..``, each covering scan coordinates ``start[i] ..
    start[i] + width[i] - 1``.  Returns ``(cross (R, 1), scan (R, W),
    valid (R, W))`` with ``W = width.max()``, lines in box order.
    """
    box = np.repeat(np.arange(count.size), count)
    first = np.cumsum(count) - count
    cross = lo[box] + np.arange(box.size) - first[box]
    step = np.arange(width.max())
    return (
        cross[:, None],
        start[box][:, None] + step,
        step < width[box][:, None],
    )


class CostQuery:
    """Prefix-sum accelerated segment/via-stack cost queries.

    The query is a *snapshot*: costs reflect the demand at the last
    :meth:`rebuild`.  The pattern stage rebuilds once per scheduler batch
    (in-batch nets do not conflict, so frozen costs are exact); the maze
    stage rebuilds per rerouted net.

    ``backend`` selects the array substrate for the prefix sums and the
    batched queries; scalar queries and the raw ``wire_cost``/``via_cost``
    arrays (which the maze router reads directly) always stay host-side
    NumPy.  Batched queries return backend arrays — callers own the
    ``to_numpy`` boundary.

    ``engine`` selects snapshot maintenance: ``"full"`` rebuilds from
    scratch each call (the oracle — also the right choice when demand
    arrays are mutated directly, bypassing the graph's dirty log);
    ``"incremental"`` subscribes to :attr:`GridGraph.dirty` and patches
    only dirty regions and the prefix suffixes they invalidate, reusing
    preallocated buffers.  Both produce bit-identical snapshots.
    """

    def __init__(
        self,
        graph: GridGraph,
        model: CostModel,
        backend: Optional[ArrayBackend] = None,
        engine: str = "full",
    ) -> None:
        if engine not in COST_ENGINES:
            raise ValueError(
                f"unknown cost engine {engine!r}; available: "
                f"{', '.join(COST_ENGINES)}"
            )
        self.graph = graph
        self.model = model
        self.backend = backend if backend is not None else get_backend("numpy")
        self.engine = engine
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
        self.wire_cost: List[np.ndarray] = []
        self.via_cost = np.empty(0)
        self._h_prefix = np.empty(0)  # host (L, nx, ny), cumulative along x
        self._v_prefix = np.empty(0)  # host (L, nx, ny), cumulative along y
        self._via_prefix = np.empty(0)  # host (L, nx, ny), cumulative along layer
        # Masked mode (see rebuild): the pinned reference the tables
        # were last seeded from, and — full engine — its wire-prefix
        # sums, recomputed only when the reference identity changes
        # (once per stage).
        self._ref_src = None
        self._ref_h_prefix: Optional[np.ndarray] = None
        self._ref_v_prefix: Optional[np.ndarray] = None
        self._h_prefix_dev = None  # device twins of the three tables
        self._v_prefix_dev = None
        self._via_prefix_dev = None
        #: Snapshot-maintenance counters (monotone; snapshot/delta to
        #: attribute work per stage or iteration).
        self.stats = CostEngineStats()
        #: Bytes of edge-cost data the last rebuild actually rewrote —
        #: the deduplicated tally the zero-copy arena accounts.
        self.last_upload_bytes = 0
        # --- incremental-engine state -------------------------------- #
        self._incremental = engine == "incremental"
        self._ready = False  # persistent buffers filled at least once
        self._buffers = False  # persistent buffers allocated
        self._cursor = 0  # dirty-log position reflected in the snapshot
        self._mode = "demand"  # "demand" | "masked"
        self._pending_wire: Dict[int, List[IntRect]] = {}  # layer -> edge rects
        self._pending_via: List[IntRect] = []  # G-cell rects (full pillar)
        self._prefix_wire_dirty: Dict[int, IntRect] = {}  # layer -> bbox
        self._prefix_via_dirty: Optional[IntRect] = None
        self._dev_stale = False
        self._masked_plan: Optional[_MaskPlan] = None  # cells now off-reference
        # Persistent padded edge tables; wire_cost / via_cost are views
        # of their non-pad part.
        self._h_edge: Optional[np.ndarray] = None
        self._v_edge: Optional[np.ndarray] = None
        self._z_edge: Optional[np.ndarray] = None
        # Masked mode, per scan family (h, v, via): flat views of
        # (edge, prefix) and of their twins holding the pinned reference.
        self._masked_tables: Tuple = ()
        self._tally_mask: Optional[np.ndarray] = None  # (3, nx*ny), False at rest
        self.rebuild()

    # ------------------------------------------------------------------ #
    # Snapshot construction
    # ------------------------------------------------------------------ #
    def rebuild(self, boxes=None, reference=None, window=None) -> None:
        """Refresh the snapshot from current demand.

        Edge costs are computed host-side (see module docstring), then
        uploaded; the prefix scans run on the backend so the snapshot
        lives where the kernels will gather from it.

        With ``boxes`` (a sequence of :class:`~repro.grid.geometry.Rect`)
        and ``reference`` (a ``(wire_cost_list, via_cost)`` snapshot from
        an earlier rebuild), the rebuild is *masked*: only edges fully
        inside a box are recomputed from current demand; everything else
        keeps the reference value.  The wire-prefix tables are built
        *per box*: inside a box the prefix is the pure reference prefix
        at the box's upstream face plus a seeded scan of the box's own
        live edge costs; outside every box it is the reference prefix
        itself.  A query that stays inside one box (the only queries the
        batched DP issues — a net's segments never leave its bounding
        box) is therefore a bit-exact function of the reference and that
        box's demand alone: independent of demand outside the boxes,
        *and* of which other boxes share the mask.  The scheduler relies
        on the first property (non-conflicting tasks see identical
        snapshots no matter which finished first); the session's per-net
        route cache relies on the second (a net's DP output does not
        depend on the chunk composition an edit reshuffles).  Where
        boxes overlap, the last one listed owns the prefix entries.

        The incremental engine does a masked rebuild in a number of
        array operations that depends on the layer count only: the box
        list becomes one :class:`_MaskPlan`; the previous plan's cells
        are copied back from the reference tables; congestion is
        evaluated once per orientation on the gathered demand of all
        in-box edges; and every box row's anchored prefix comes out of
        one row-wise ``cumsum`` over the padded scan lines.  Padding
        only ever *follows* a line's real entries, so each prefix entry
        is the same left-to-right chain of additions the oracle's
        box-by-box scan performs — every bit agrees.

        ``window`` (a ``(x0, y0, x1, y1)`` G-cell rect) limits an
        *incremental* unmasked refresh to dirty regions intersecting the
        window — the per-net maze refresh.  Regions left pending stay
        guarded: prefix queries that touch them raise
        :class:`StaleCostError` instead of serving stale costs.  The
        full engine ignores ``window`` (it always refreshes everything).
        """
        start = perf_counter()
        try:
            if self._incremental:
                if boxes is not None:
                    if reference is None:
                        raise ValueError("masked rebuild needs a cost reference")
                    self._masked_incremental(boxes, reference)
                else:
                    self._demand_incremental(window)
            else:
                self._rebuild_full(boxes, reference)
        finally:
            self.stats.seconds += perf_counter() - start

    def _rebuild_full(self, boxes, reference) -> None:
        """The from-scratch oracle: fresh arrays, full recompute."""
        graph, model = self.graph, self.model
        nx, ny, n_layers = graph.nx, graph.ny, self.n_layers
        if boxes is None:
            self.wire_cost = [
                model.wire_edge_costs(graph, layer) for layer in range(n_layers)
            ]
            self.via_cost = model.via_edge_costs(graph)
        else:
            if reference is None:
                raise ValueError("masked rebuild needs a cost reference")
            ref_wire, ref_via = reference
            self.wire_cost = [
                np.array(ref_wire[layer], copy=True) for layer in range(n_layers)
            ]
            self.via_cost = np.array(ref_via, copy=True)
            for box in boxes:
                for layer in range(n_layers):
                    # Wire edge [x, y] leaves cell (x, y) along the
                    # layer direction; recompute the edges whose both
                    # endpoints lie inside the box.
                    if self._h_allowed[layer]:
                        sl = (slice(box.xlo, box.xhi), slice(box.ylo, box.yhi + 1))
                    else:
                        sl = (slice(box.xlo, box.xhi + 1), slice(box.ylo, box.yhi))
                    self.wire_cost[layer][sl] = model.unit_wire_cost + model.congestion(
                        graph.wire_demand[layer][sl], graph.wire_capacity[layer][sl]
                    )
                vsl = (
                    slice(None),
                    slice(box.xlo, box.xhi + 1),
                    slice(box.ylo, box.yhi + 1),
                )
                self.via_cost[vsl] = model.unit_via_cost + model.congestion(
                    graph.via_demand[vsl], graph.via_capacity[vsl]
                )

        # Full-(L, nx, ny) edge layout: row/column 0 pads the exclusive
        # prefix, layers of the wrong direction stay all-zero and are
        # masked out at query time by _h_allowed/_v_allowed.
        h_edge = np.zeros((n_layers, nx, ny))
        v_edge = np.zeros((n_layers, nx, ny))
        for layer in range(n_layers):
            if self._h_allowed[layer]:
                h_edge[layer, 1:, :] = self.wire_cost[layer]  # (nx-1, ny)
            else:
                v_edge[layer, :, 1:] = self.wire_cost[layer]  # (nx, ny-1)
        via_edge = np.zeros((n_layers, nx, ny))
        via_edge[1:] = self.via_cost

        if boxes is None:
            # Host-side scans feed both twins: the device twin is a
            # (buffer-reusing) upload of the host result — no
            # device-to-host round-trip, and steady-state rebuilds on a
            # non-device_is_host backend allocate no fresh device
            # planes (see _upload_prefix).  Host np.cumsum and the
            # backend's cumsum are bit-identical by the backend
            # contract, so the twins stay exact copies.
            self._h_prefix = np.cumsum(h_edge, axis=1)
            self._v_prefix = np.cumsum(v_edge, axis=2)
            self._via_prefix = np.cumsum(via_edge, axis=0)
            self._h_prefix_dev = self._upload_prefix(
                self._h_prefix_dev, self._h_prefix
            )
            self._v_prefix_dev = self._upload_prefix(
                self._v_prefix_dev, self._v_prefix
            )
            self._via_prefix_dev = self._upload_prefix(
                self._via_prefix_dev, self._via_prefix
            )
        else:
            # Per-box seeded wire prefixes (docstring): reference prefix
            # everywhere, then one anchored in-box scan per box.  Via
            # prefixes are pillar-local cumsums — already a pure
            # function of the pillar's own (in-box) costs.
            self._ensure_reference_prefixes(reference)
            self._h_prefix = self._ref_h_prefix.copy()
            self._v_prefix = self._ref_v_prefix.copy()
            self._via_prefix = np.cumsum(via_edge, axis=0)
            for box in boxes:
                for layer in range(n_layers):
                    rect = self._box_wire_rect(layer, box)
                    if rect is not None:
                        self._seed_wire_prefix(layer, rect, h_edge, v_edge)
            self._h_prefix_dev = self._upload_prefix(
                self._h_prefix_dev, self._h_prefix
            )
            self._v_prefix_dev = self._upload_prefix(
                self._v_prefix_dev, self._v_prefix
            )
            self._via_prefix_dev = self._upload_prefix(
                self._via_prefix_dev, self._via_prefix
            )

        if boxes is None:
            self.stats.full_rebuilds += 1
            wire_n = sum(int(a.size) for a in self.wire_cost)
            via_n = int(self.via_cost.size)
        else:
            self.stats.masked_rebuilds += 1
            wire_n, via_n = self._boxes_edge_tally(boxes)
        self.stats.refreshed_wire_edges += wire_n
        self.stats.refreshed_via_edges += via_n
        self.last_upload_bytes = (wire_n + via_n) * self.via_cost.itemsize

    def _upload_prefix(self, dev, host: np.ndarray):
        """Return the device twin of prefix plane ``host``.

        On a ``device_is_host`` backend the host array *is* the twin
        (aliased, so in-place host patches stay visible for free).  On
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

    # -- masked-mode prefix primitives (shared by both engines) --------- #
    def _ensure_reference_prefixes(self, reference) -> None:
        """(Re)build the reference wire-prefix tables.

        Cached by reference identity — one global scan per stage
        reference, not one per masked rebuild.
        """
        if self._same_reference(reference):
            return
        ref_wire, _ = reference
        nx, ny, n_layers = self.graph.nx, self.graph.ny, self.n_layers
        h_edge = np.zeros((n_layers, nx, ny))
        v_edge = np.zeros((n_layers, nx, ny))
        for layer in range(n_layers):
            if self._h_allowed[layer]:
                h_edge[layer, 1:, :] = ref_wire[layer]
            else:
                v_edge[layer, :, 1:] = ref_wire[layer]
        self._ref_h_prefix = np.cumsum(h_edge, axis=1)
        self._ref_v_prefix = np.cumsum(v_edge, axis=2)
        self._ref_src = reference

    def _box_wire_rect(self, layer: int, box) -> Optional[IntRect]:
        """Clipped in-box edge rect of ``box`` on ``layer`` (or None)."""
        if self._h_allowed[layer]:
            rect = (box.xlo, box.ylo, box.xhi - 1, box.yhi)
        else:
            rect = (box.xlo, box.ylo, box.xhi, box.yhi - 1)
        shape = self.wire_cost[layer].shape
        xlo, ylo = max(rect[0], 0), max(rect[1], 0)
        xhi, yhi = min(rect[2], shape[0] - 1), min(rect[3], shape[1] - 1)
        if xhi < xlo or yhi < ylo:
            return None
        return (xlo, ylo, xhi, yhi)

    def _seed_wire_prefix(self, layer: int, rect: IntRect, h_edge, v_edge) -> None:
        """Anchored in-box prefix scan (edge-rect indices on the scan
        axis): reference prefix at the box's upstream face, then the
        box's own live edge costs.  ``tmp[0] += anchor`` is the same
        IEEE operation the reference scan performed at that position,
        so identical inputs reproduce the reference bits exactly."""
        xlo, ylo, xhi, yhi = rect
        if self._h_allowed[layer]:
            rows = slice(ylo, yhi + 1)
            tmp = h_edge[layer, xlo + 1 : xhi + 2, rows].copy()
            tmp[0] += self._ref_h_prefix[layer, xlo, rows]
            np.cumsum(tmp, axis=0, out=self._h_prefix[layer, xlo + 1 : xhi + 2, rows])
        else:
            cols = slice(xlo, xhi + 1)
            tmp = v_edge[layer, cols, ylo + 1 : yhi + 2].copy()
            tmp[:, 0] += self._ref_v_prefix[layer, cols, ylo]
            np.cumsum(tmp, axis=1, out=self._v_prefix[layer, cols, ylo + 1 : yhi + 2])

    def _boxes_edge_tally(self, boxes) -> Tuple[int, int]:
        """Deduplicated (wire, via) edge counts covered by ``boxes``."""
        h_rects = [(b.xlo, b.ylo, b.xhi - 1, b.yhi) for b in boxes]
        v_rects = [(b.xlo, b.ylo, b.xhi, b.yhi - 1) for b in boxes]
        cell_rects = [(b.xlo, b.ylo, b.xhi, b.yhi) for b in boxes]
        n_h = int(self._h_allowed.sum())
        n_v = self.n_layers - n_h
        wire_n = rect_union_area(h_rects) * n_h + rect_union_area(v_rects) * n_v
        via_n = rect_union_area(cell_rects) * max(self.n_layers - 1, 0)
        return wire_n, via_n

    # ------------------------------------------------------------------ #
    # Incremental engine
    # ------------------------------------------------------------------ #
    def _ensure_buffers(self) -> None:
        """Allocate the persistent scratch and prefix buffers once."""
        if self._buffers:
            return
        graph = self.graph
        nx, ny, n_layers = graph.nx, graph.ny, self.n_layers
        self._h_edge = np.zeros((n_layers, nx, ny))
        self._v_edge = np.zeros((n_layers, nx, ny))
        self._z_edge = np.zeros((n_layers, nx, ny))
        # Row/column 0 pads the exclusive prefix and is never written;
        # the public cost arrays are the rest, so a cost write needs no
        # mirroring into the scan input.
        self.wire_cost = [
            self._h_edge[layer, 1:, :]
            if self._h_allowed[layer]
            else self._v_edge[layer, :, 1:]
            for layer in range(n_layers)
        ]
        self.via_cost = self._z_edge[1:]
        self._h_prefix = np.zeros((n_layers, nx, ny))
        self._v_prefix = np.zeros((n_layers, nx, ny))
        self._via_prefix = np.zeros((n_layers, nx, ny))
        self._tally_mask = np.zeros((3, nx * ny), dtype=bool)
        if self.backend.device_is_host:
            # In-place host patches keep the device twins current for
            # free — they are the same arrays.
            self._h_prefix_dev = self._h_prefix
            self._v_prefix_dev = self._v_prefix
            self._via_prefix_dev = self._via_prefix
        self._buffers = True

    def _full_refresh(self) -> None:
        """Recompute everything into the persistent buffers."""
        graph, model = self.graph, self.model
        self._ensure_buffers()
        # Read the log position BEFORE the demand arrays: a record that
        # lands in between gets re-refreshed on the next drain
        # (overshoot), whereas the opposite order could skip a mutation
        # forever.
        end = graph.dirty.end
        for layer in range(self.n_layers):
            np.copyto(self.wire_cost[layer], model.wire_edge_costs(graph, layer))
        if self.via_cost.size:
            np.copyto(self.via_cost, model.via_edge_costs(graph))
        np.cumsum(self._h_edge, axis=1, out=self._h_prefix)
        np.cumsum(self._v_edge, axis=2, out=self._v_prefix)
        np.cumsum(self._z_edge, axis=0, out=self._via_prefix)
        self._cursor = end
        self._mode = "demand"
        self._masked_plan = None
        self._pending_wire = {}
        self._pending_via = []
        self._prefix_wire_dirty = {}
        self._prefix_via_dirty = None
        self._dev_stale = not self.backend.device_is_host
        self._ready = True
        wire_n = sum(int(a.size) for a in self.wire_cost)
        via_n = int(self.via_cost.size)
        self.stats.full_rebuilds += 1
        self.stats.refreshed_wire_edges += wire_n
        self.stats.refreshed_via_edges += via_n
        self.last_upload_bytes = (wire_n + via_n) * self.via_cost.itemsize

    def _demand_incremental(self, window: Optional[IntRect]) -> None:
        """Drain the dirty log and refresh dirty regions (∩ window)."""
        graph = self.graph
        if not self._ready or self._mode != "demand":
            self._full_refresh()
            return
        records, end = graph.dirty.since(self._cursor)
        self._cursor = end
        if records is None:
            # The log compacted past our cursor — everything is suspect.
            self._full_refresh()
            return
        for rec in records:
            kind = rec[0]
            if kind == "all":
                self._full_refresh()
                return
            if kind == "w":
                self._push_pending_wire(rec[1], rec[2:])
            else:  # "v"
                self._push_pending_via(rec[1:])
        self.stats.incremental_rebuilds += 1

        refreshed_wire: Dict[int, List[IntRect]] = {}
        refreshed_via: List[IntRect] = []
        if window is None:
            for layer, rects in self._pending_wire.items():
                done = [
                    c
                    for rect in rects
                    if (c := self._refresh_wire_rect(layer, rect)) is not None
                ]
                if done:
                    refreshed_wire[layer] = done
            for rect in self._pending_via:
                clipped = self._refresh_via_rect(rect)
                if clipped is not None:
                    refreshed_via.append(clipped)
            self._pending_wire = {}
            self._pending_via = []
        else:
            x0, y0, x1, y1 = window
            for layer in list(self._pending_wire):
                # The window's edge footprint on this layer: the edges
                # a search restricted to the window can read.
                if self._h_allowed[layer]:
                    wrect = (x0, y0, x1 - 1, y1)
                else:
                    wrect = (x0, y0, x1, y1 - 1)
                keep: List[IntRect] = []
                done: List[IntRect] = []
                for rect in self._pending_wire[layer]:
                    if wrect[0] <= wrect[2] and wrect[1] <= wrect[3] and rects_overlap(
                        rect, wrect
                    ):
                        clipped = self._refresh_wire_rect(layer, rect)
                        if clipped is not None:
                            done.append(clipped)
                    else:
                        keep.append(rect)
                if keep:
                    self._pending_wire[layer] = keep
                else:
                    del self._pending_wire[layer]
                if done:
                    refreshed_wire[layer] = done
            wrect = (x0, y0, x1, y1)
            keep_via: List[IntRect] = []
            for rect in self._pending_via:
                if rects_overlap(rect, wrect):
                    clipped = self._refresh_via_rect(rect)
                    if clipped is not None:
                        refreshed_via.append(clipped)
                else:
                    keep_via.append(rect)
            self._pending_via = keep_via

        wire_n = sum(rect_union_area(rects) for rects in refreshed_wire.values())
        via_n = rect_union_area(refreshed_via) * max(self.n_layers - 1, 0)
        self.stats.refreshed_wire_edges += wire_n
        self.stats.refreshed_via_edges += via_n
        self.last_upload_bytes = (wire_n + via_n) * self.via_cost.itemsize

    def _masked_incremental(self, boxes, reference) -> None:
        """Masked rebuild as whole-batch array operations on one plan.

        The persistent tables hold the previous masked snapshot (same
        reference): copying the previous plan's cells back from the
        reference tables and repainting the new plan's cells from
        demand reproduces the oracle masked rebuild bit for bit — the
        rest of the tables already equal the reference.  A reference
        change (once per stage) seeds the tables with one full copy.

        Upload accounting: only the *fresh* cells count toward
        ``last_upload_bytes`` — restores copy from the reference
        planes, which are already device-resident (uploaded once at
        seeding), so refreshing the preallocated slab in place moves
        no new host bytes for them.  This matches the full engine's
        oracle tally (:meth:`_boxes_edge_tally` over the new boxes);
        without the split, every stacked launch reusing the scratch
        would double-count its predecessor's slab as bus traffic.
        The ``refreshed_*`` stats still count restores — they measure
        host-side recompute work, which the restores really do.  Both
        are counts of distinct painted cells, so overlapping boxes are
        tallied once.
        """
        seeded = not (
            self._ready and self._mode == "masked" and self._same_reference(reference)
        )
        if seeded:
            self._seed_from_reference(reference)
        graph, model = self.graph, self.model
        previous, plan = self._masked_plan, self._mask_plan(boxes)
        if previous is not None:
            for scan, (edge, prefix, ref_edge, ref_prefix) in zip(
                previous.scans, self._masked_tables
            ):
                if scan is not None:
                    edge[scan.cells] = ref_edge[scan.cells]
                    prefix[scan.cells] = ref_prefix[scan.cells]
        sources = [
            ([graph.wire_demand[l] for l in layers],
             [graph.wire_capacity[l] for l in layers],
             model.unit_wire_cost)
            for layers in (self._h_layers, self._v_layers)
        ]
        sources.append(([graph.via_demand], [graph.via_capacity], model.unit_via_cost))
        for scan, tables, source in zip(plan.scans, self._masked_tables, sources):
            if scan is not None:
                self._paint(scan, tables, *source)
        self._masked_plan = plan
        self._dev_stale = not self.backend.device_is_host
        self.stats.masked_rebuilds += 1
        if seeded:
            wire_n = sum(int(a.size) for a in self.wire_cost)
            via_n = int(self.via_cost.size)
            upload_n = wire_n + via_n
        else:
            mask = self._tally_mask
            flat = mask.reshape(-1)
            flat[plan.tally] = True
            wire_n, via_n = self._tally_edges()
            upload_n = wire_n + via_n
            if previous is not None:
                flat[previous.tally] = True
                wire_n, via_n = self._tally_edges()
            mask.fill(False)
        self.stats.refreshed_wire_edges += wire_n
        self.stats.refreshed_via_edges += via_n
        self.last_upload_bytes = upload_n * self.via_cost.itemsize

    def _tally_edges(self) -> Tuple[int, int]:
        """(wire, via) edge counts of the cells painted in the tally mask."""
        h_cells, v_cells, via_cells = (
            int(np.count_nonzero(row)) for row in self._tally_mask
        )
        wire_n = h_cells * len(self._h_layers) + v_cells * len(self._v_layers)
        return wire_n, via_cells * (self.n_layers - 1)

    def _same_reference(self, reference) -> bool:
        """True when ``reference`` is the one the ref tables were built from."""
        if self._ref_src is None:
            return False
        prev_wire, prev_via = self._ref_src
        ref_wire, ref_via = reference
        return (
            prev_via is ref_via
            and len(prev_wire) == len(ref_wire)
            and all(a is b for a, b in zip(prev_wire, ref_wire))
        )

    def _seed_from_reference(self, reference) -> None:
        """Copy the whole reference into the persistent buffers (once
        per stage reference, not once per batch)."""
        ref_wire, ref_via = reference
        self._ensure_buffers()
        for layer in range(self.n_layers):
            np.copyto(self.wire_cost[layer], ref_wire[layer])
        if self.via_cost.size:
            np.copyto(self.via_cost, ref_via)
        np.cumsum(self._h_edge, axis=1, out=self._h_prefix)
        np.cumsum(self._v_edge, axis=2, out=self._v_prefix)
        np.cumsum(self._z_edge, axis=0, out=self._via_prefix)
        # The freshly seeded tables *are* the reference tables —
        # capture them for the anchored scans and the restores.
        self._masked_tables = tuple(
            (
                edge.reshape(-1),
                prefix.reshape(-1),
                edge.copy().reshape(-1),
                prefix.copy().reshape(-1),
            )
            for edge, prefix in (
                (self._h_edge, self._h_prefix),
                (self._v_edge, self._v_prefix),
                (self._z_edge, self._via_prefix),
            )
        )
        self._ref_src = reference
        self._mode = "masked"
        self._masked_plan = None
        self._pending_wire = {}
        self._pending_via = []
        self._prefix_wire_dirty = {}
        self._prefix_via_dirty = None
        self._dev_stale = not self.backend.device_is_host
        self._ready = True

    # -- masked-rebuild plan -------------------------------------------- #
    def _mask_plan(self, boxes) -> _MaskPlan:
        """Turn a box list into the index plan of one masked rebuild."""
        nx, ny = self.graph.nx, self.graph.ny
        plane = nx * ny
        rect = np.array([b.as_tuple() for b in boxes], dtype=np.intp).reshape(-1, 4)
        lo = np.maximum(rect[:, :2], 0)
        span = np.minimum(rect[:, 2:], (nx - 1, ny - 1)) - lo + 1
        if span.size and span.min() <= 0:  # boxes wholly off the grid
            keep = (span > 0).all(axis=1)
            lo, span = lo[keep], span[keep]
        if not span.size:
            return _MaskPlan((None, None, None), np.empty(0, dtype=np.intp))
        x0, y0, w, h = lo[:, 0], lo[:, 1], span[:, 0], span[:, 1]
        # Lines run over the boxes' G-cells; a line's first cell is its
        # anchor, and edge k of the line lives in table cell k + 1.  A
        # layer's demand array is its table plane minus the pad row
        # (x-scan: ny cells) or pad column (y-scan: one cell per row).
        y, x, valid = _scan_lines(y0, h, x0, w)
        h_scan, h_cells = self._wire_scan(
            x * ny + y, valid, self._h_layers, lambda c: c - ny
        )
        x, y, valid = _scan_lines(x0, w, y0, h)
        cells = x * ny + y
        v_scan, v_cells = self._wire_scan(
            cells, valid, self._v_layers, lambda c: c - c // ny - 1
        )
        via = cells[valid]
        # A pillar is a scan line along the layer axis, anchored on the
        # all-zero layer 0 of the via tables.
        pillars = via[:, None] + plane * np.arange(1, self.n_layers)
        via_scan = _ScanPlan(
            demand=pillars.reshape(-1) - plane,
            cells=pillars.reshape(-1),
            lines=pillars[None],
            anchor=via[None],
            live=np.arange(pillars.size),
        )
        tally = np.concatenate((h_cells, v_cells + plane, via + 2 * plane))
        return _MaskPlan((h_scan, v_scan, via_scan), tally)

    def _wire_scan(self, cells, valid, layers: List[int], unpadded):
        """One wire direction's :class:`_ScanPlan` and its in-plane edge
        cells, from padded lines of G-cells; ``unpadded`` maps table
        cells to positions in a layer's demand array."""
        edge = valid[:, 1:]
        live = np.flatnonzero(edge)
        lines = np.where(edge, cells[:, 1:], 0)
        plane_cells = lines.reshape(-1)[live]
        if not (live.size and layers):
            return None, plane_cells[:0]
        offset = np.array(layers)[:, None] * (self.graph.nx * self.graph.ny)
        scan = _ScanPlan(
            demand=unpadded(plane_cells),
            cells=(offset + plane_cells).reshape(-1),
            lines=offset[:, :, None] + lines,
            anchor=offset + cells[:, 0],
            live=live,
        )
        return scan, plane_cells

    def _paint(self, scan: _ScanPlan, tables, demand, capacity, unit) -> None:
        """Recompute one scan family's in-box edge costs from the
        per-plane ``demand`` / ``capacity`` arrays and rewrite their
        anchored prefix entries."""
        edge, prefix, _, ref_prefix = tables
        cost = self.model.congestion(
            np.stack([a.reshape(-1)[scan.demand] for a in demand]),
            np.stack([a.reshape(-1)[scan.demand] for a in capacity]),
        )
        cost += unit
        edge[scan.cells] = cost.reshape(-1)
        # Padding reads table cell 0 (always zero) and trails every
        # line, so the row-wise scan adds exactly what a per-box scan
        # adds, in the same order.
        lines = edge[scan.lines]
        lines[..., 0] += ref_prefix[scan.anchor]
        np.cumsum(lines, axis=-1, out=lines)
        prefix[scan.cells] = lines.reshape(len(demand), -1)[:, scan.live].reshape(-1)

    # -- region refresh primitives (unmasked mode) ---------------------- #
    def _refresh_wire_rect(
        self, layer: int, rect: Sequence[int]
    ) -> Optional[IntRect]:
        """Rewrite one wire-edge rect (clipped); return what was written."""
        arr = self.wire_cost[layer]
        xlo = max(rect[0], 0)
        ylo = max(rect[1], 0)
        xhi = min(rect[2], arr.shape[0] - 1)
        yhi = min(rect[3], arr.shape[1] - 1)
        if xhi < xlo or yhi < ylo:
            return None
        sl = (slice(xlo, xhi + 1), slice(ylo, yhi + 1))
        graph, model = self.graph, self.model
        arr[sl] = model.unit_wire_cost + model.congestion(
            graph.wire_demand[layer][sl], graph.wire_capacity[layer][sl]
        )
        self._merge_prefix_wire(layer, (xlo, ylo, xhi, yhi))
        return (xlo, ylo, xhi, yhi)

    def _refresh_via_rect(self, rect: Sequence[int]) -> Optional[IntRect]:
        """Rewrite the full via pillars of one G-cell rect (clipped)."""
        graph, model = self.graph, self.model
        if self.via_cost.size == 0:
            return None
        xlo = max(rect[0], 0)
        ylo = max(rect[1], 0)
        xhi = min(rect[2], graph.nx - 1)
        yhi = min(rect[3], graph.ny - 1)
        if xhi < xlo or yhi < ylo:
            return None
        vsl = (slice(None), slice(xlo, xhi + 1), slice(ylo, yhi + 1))
        self.via_cost[vsl] = model.unit_via_cost + model.congestion(
            graph.via_demand[vsl], graph.via_capacity[vsl]
        )
        self._merge_prefix_via((xlo, ylo, xhi, yhi))
        return (xlo, ylo, xhi, yhi)

    # -- pending / prefix-dirty bookkeeping ----------------------------- #
    def _push_pending_wire(self, layer: int, rect: Sequence[int]) -> None:
        _push_pending(self._pending_wire.setdefault(layer, []), tuple(rect))

    def _push_pending_via(self, rect: Sequence[int]) -> None:
        _push_pending(self._pending_via, tuple(rect))

    def _merge_prefix_wire(self, layer: int, rect: IntRect) -> None:
        prev = self._prefix_wire_dirty.get(layer)
        self._prefix_wire_dirty[layer] = rect if prev is None else _merge(prev, rect)

    def _merge_prefix_via(self, rect: IntRect) -> None:
        prev = self._prefix_via_dirty
        self._prefix_via_dirty = rect if prev is None else _merge(prev, rect)

    def _flush_prefix_patches(self) -> None:
        """Patch the host prefix tables over the dirty bounding rects.

        A prefix sum only changes downstream of the first dirty index,
        so each patch rewrites a suffix: copy the suffix of edge values,
        fold the last clean prefix entry into the first element (IEEE
        addition is commutative bitwise, so ``edge + anchor`` equals the
        full scan's ``anchor + edge``), and run the same sequential
        ``cumsum`` the full build would — the patched entries are
        bit-identical to a from-scratch rebuild.
        """
        for layer, (xlo, ylo, xhi, yhi) in self._prefix_wire_dirty.items():
            if self._h_allowed[layer]:
                s = xlo + 1  # first modified padded-edge index along x
                rows = slice(ylo, yhi + 1)
                tmp = self._h_edge[layer, s:, rows].copy()
                tmp[0] += self._h_prefix[layer, s - 1, rows]
                np.cumsum(tmp, axis=0, out=self._h_prefix[layer, s:, rows])
            else:
                s = ylo + 1
                cols = slice(xlo, xhi + 1)
                tmp = self._v_edge[layer, cols, s:].copy()
                tmp[:, 0] += self._v_prefix[layer, cols, s - 1]
                np.cumsum(tmp, axis=1, out=self._v_prefix[layer, cols, s:])
        if self._prefix_via_dirty is not None:
            xlo, ylo, xhi, yhi = self._prefix_via_dirty
            # Via refreshes rewrite whole pillars, so the "suffix" is
            # the full layer axis (including the zero pad at layer 0).
            sl = (slice(None), slice(xlo, xhi + 1), slice(ylo, yhi + 1))
            np.cumsum(self._z_edge[sl], axis=0, out=self._via_prefix[sl])
        self._prefix_wire_dirty = {}
        self._prefix_via_dirty = None
        if not self.backend.device_is_host:
            self._dev_stale = True

    def _flush_if_dirty(self) -> None:
        if self._prefix_wire_dirty or self._prefix_via_dirty is not None:
            self._flush_prefix_patches()

    def _ensure_tables(self) -> None:
        """Make the device prefix twins current (flush + upload)."""
        self._flush_if_dirty()
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

    def sync(self) -> None:
        """Flush lazy prefix patches and device uploads (incremental
        engine; no-op on the full engine).  Mainly for tests and
        benchmarks that inspect the tables directly."""
        if self._incremental:
            self._ensure_tables()

    def snapshot_reference(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Deep-copied ``(wire_cost, via_cost)`` for masked rebuilds.

        Callers must hold a *copy*: the incremental engine refreshes its
        cost arrays in place, so aliasing them as a pinned reference
        would let later batches corrupt it.
        """
        return [a.copy() for a in self.wire_cost], self.via_cost.copy()

    # -- staleness guards ----------------------------------------------- #
    def _guard_wire(self, layer: int, rect: IntRect) -> None:
        rects = self._pending_wire.get(layer)
        if rects:
            for pending in rects:
                if rects_overlap(pending, rect):
                    raise StaleCostError(
                        f"wire costs on layer {layer} near {pending} were "
                        "left pending by a window-limited rebuild; rebuild "
                        "without a window before querying this region"
                    )

    def _guard_via(self, rect: IntRect) -> None:
        for pending in self._pending_via:
            if rects_overlap(pending, rect):
                raise StaleCostError(
                    f"via costs near {pending} were left pending by a "
                    "window-limited rebuild; rebuild without a window "
                    "before querying this region"
                )

    def _prepare_batch_wire(self, x1, y1, x2, y2) -> None:
        if self._pending_wire and x1.size:
            xlo = int(min(x1.min(), x2.min()))
            xhi = int(max(x1.max(), x2.max()))
            ylo = int(min(y1.min(), y2.min()))
            yhi = int(max(y1.max(), y2.max()))
            for layer in self._pending_wire:
                if self._h_allowed[layer]:
                    rect = (xlo, ylo, xhi - 1, yhi)
                else:
                    rect = (xlo, ylo, xhi, yhi - 1)
                if rect[0] <= rect[2] and rect[1] <= rect[3]:
                    self._guard_wire(layer, rect)
        self._ensure_tables()

    def _prepare_batch_via(self, x, y) -> None:
        if self._pending_via and x.size:
            self._guard_via(
                (int(x.min()), int(y.min()), int(x.max()), int(y.max()))
            )
        self._ensure_tables()

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
            if self._incremental:
                self._guard_wire(layer, (lo, y1, hi - 1, y1))
                self._flush_if_dirty()
            return float(self._h_prefix[layer, hi, y1] - self._h_prefix[layer, lo, y1])
        lo, hi = sorted((y1, y2))
        if self._incremental:
            self._guard_wire(layer, (x1, lo, x1, hi - 1))
            self._flush_if_dirty()
        return float(self._v_prefix[layer, x1, hi] - self._v_prefix[layer, x1, lo])

    def via_stack_cost(self, x: int, y: int, lo: int, hi: int) -> float:
        """Return the cost of a via stack spanning layers ``lo``..``hi``."""
        if lo > hi:
            lo, hi = hi, lo
        if self._incremental:
            self._guard_via((x, y, x, y))
            self._flush_if_dirty()
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
        if self._incremental:
            self._prepare_batch_wire(x1, y1, x2, y2)

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
        if self._incremental:
            self._prepare_batch_via(x, y)
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


def _merge(a: IntRect, b: IntRect) -> IntRect:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def _rect_area(r: IntRect) -> int:
    return max(r[2] - r[0] + 1, 0) * max(r[3] - r[1] + 1, 0)


def _push_pending(rects: List[IntRect], rect: IntRect) -> None:
    """Append a pending rect, bounding the list at ``_PENDING_CAP``.

    At the cap, the new rect is folded into the existing rect whose
    bounding union grows the least (conservative overshoot).  This keeps
    spatially-distant dirty regions separate — collapsing everything to
    one bbox would make every windowed refresh near-full-grid.
    """
    if len(rects) < _PENDING_CAP:
        rects.append(rect)
        return
    best, best_growth = 0, None
    for i, other in enumerate(rects):
        growth = _rect_area(_merge(other, rect)) - _rect_area(other)
        if best_growth is None or growth < best_growth:
            best, best_growth = i, growth
    rects[best] = _merge(rects[best], rect)


__all__ = [
    "COST_ENGINES",
    "CostEngineStats",
    "CostModel",
    "CostQuery",
    "StaleCostError",
]
