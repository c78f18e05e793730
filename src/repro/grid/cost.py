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

Snapshot maintenance keeps persistent tables and rewrites only what a
rebuild can have changed.  *Unmasked* rebuilds drain the grid graph's
dirty-rect log, recompute edge costs inside dirty (or requested)
regions, and patch the prefix tables by rewriting only the affected
row/column suffixes.  *Masked* rebuilds (a box list over a pinned
reference — the pattern stage's per-level snapshot) turn the box list
and its read :class:`Footprint` into one :class:`_MaskPlan` of flat
cell indices and run a fixed number of whole-batch array operations
over it, whatever the number of boxes.  The masked contract: costs are
live on the read footprint and equal the reference elsewhere; any
superset of the lines a caller reads is exact for it.  Either way a
prefix entry is produced by the same left-to-right sequence of IEEE
additions a from-scratch scan performs (the scan restarts from the last
clean / reference prefix entry, folded into the first rewritten
element), so every table is bit-identical to one built from scratch —
asserted across backends by ``tests/test_cost_engine.py`` against the
from-scratch oracle in ``tests/cost_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.grid.geometry import rect_union_area, rects_overlap
from repro.grid.graph import GridGraph
from repro.utils.arrays import unique_sorted

#: Pending-rect lists longer than this collapse to their bounding rect
#: (conservative overshoot keeps bookkeeping bounded).
_PENDING_CAP = 16

IntRect = Tuple[int, int, int, int]


class StaleCostError(RuntimeError):
    """A query touched a region whose costs were never refreshed.

    Raised when a prefix query's span intersects a dirty rect that a
    window-limited rebuild deliberately left pending.  Serving the stale
    value silently would break the snapshot contract; rebuild without a
    window (or with a covering window) to clear the condition.
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
        snapshot evaluates this on many small dirty slabs,
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
    :meth:`rebuild`.  The pattern stage rebuilds once per scheduler batch
    (in-batch nets do not conflict, so frozen costs are exact); the maze
    stage rebuilds per rerouted net.

    ``backend`` selects the array substrate for the prefix sums and the
    batched queries; scalar queries and the raw ``wire_cost``/``via_cost``
    arrays (which the maze router reads directly) always stay host-side
    NumPy.  Batched queries return backend arrays — callers own the
    ``to_numpy`` boundary.

    Maintenance subscribes to :attr:`GridGraph.dirty` and patches only
    dirty regions and the prefix suffixes they invalidate, reusing
    preallocated buffers.  Demand written through the graph (route
    commits, ``add_*_demand``) logs itself; code that writes the demand
    arrays directly must do so before the first :class:`CostQuery` on
    that graph is built, or call :meth:`GridGraph.mark_all_demand_dirty`
    afterwards.
    """

    def __init__(
        self,
        graph: GridGraph,
        model: CostModel,
        backend: Optional[ArrayBackend] = None,
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
        self.wire_cost: List[np.ndarray] = []
        self.via_cost = np.empty(0)
        self._h_prefix = np.empty(0)  # host (L, nx, ny), cumulative along x
        self._v_prefix = np.empty(0)  # host (L, nx, ny), cumulative along y
        self._via_prefix = np.empty(0)  # host (L, nx, ny), cumulative along layer
        # Masked mode (see rebuild): the pinned reference the tables
        # were last seeded from.
        self._ref_src = None
        self._h_prefix_dev = None  # device twins of the three tables
        self._v_prefix_dev = None
        self._via_prefix_dev = None
        #: Snapshot-maintenance counters (monotone; snapshot/delta to
        #: attribute work per stage or iteration).
        self.stats = CostEngineStats()
        #: Bytes of edge-cost data the last rebuild actually rewrote —
        #: the deduplicated tally the zero-copy arena accounts.
        self.last_upload_bytes = 0
        # --- maintenance state ---------------------------------------- #
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
        # Persistent padded edge tables, one plane stack per scan family
        # (x-scan wires, y-scan wires, vias) in one array each for edges
        # and prefixes; wire_cost / via_cost are views of their non-pad
        # part.
        self._edge_all: Optional[np.ndarray] = None
        self._prefix_all: Optional[np.ndarray] = None
        self._h_edge: Optional[np.ndarray] = None
        self._v_edge: Optional[np.ndarray] = None
        self._z_edge: Optional[np.ndarray] = None
        # Masked mode: flat views of the edge and prefix tables and flat
        # copies of them holding the pinned reference.
        self._edge_flat = self._prefix_flat = np.empty(0)
        self._ref_edge = self._ref_prefix = np.empty(0)
        self.rebuild()

    # ------------------------------------------------------------------ #
    # Snapshot construction
    # ------------------------------------------------------------------ #
    def rebuild(self, boxes=None, reference=None, reads=None, window=None) -> None:
        """Refresh the snapshot from current demand.

        Edge costs are computed host-side (see module docstring), then
        uploaded; the prefix scans run on the backend so the snapshot
        lives where the kernels will gather from it.

        With ``boxes`` (a sequence of :class:`~repro.grid.geometry.Rect`)
        and ``reference`` (a ``(wire_cost_list, via_cost)`` snapshot from
        an earlier rebuild), the rebuild is *masked*: costs are live
        (recomputed from current demand) on the read footprint ``reads``
        — a :class:`Footprint`; ``None`` means every line of every box —
        and equal the reference elsewhere; any superset of the lines a
        caller reads is exact for it.  A live wire line's prefix is the
        pure reference prefix at its box's upstream face plus a seeded
        scan of the line's own live edge costs.  A query on footprint
        lines of one box (the batched DP's queries: a net's segments
        never leave its bounding box) is therefore a bit-exact function
        of the reference and that box's demand alone — independent of
        demand outside the boxes, *and* of which other boxes or lines
        share the mask.  The scheduler relies on the first property
        (non-conflicting tasks see identical snapshots no matter which
        finished first); the session's per-net route cache relies on the
        second (a net's DP output does not depend on the chunk
        composition an edit reshuffles).  A read line outside its
        (clipped) box raises :class:`ValueError`.

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

        ``window`` (a ``(x0, y0, x1, y1)`` G-cell rect) limits an
        unmasked refresh to dirty regions intersecting the window — the
        per-net maze refresh.  Regions left pending stay guarded: prefix
        queries that touch them raise :class:`StaleCostError` instead of
        serving stale costs.
        """
        start = perf_counter()
        try:
            if boxes is None:
                self._demand_incremental(window)
            elif reference is None:
                raise ValueError("masked rebuild needs a cost reference")
            else:
                self._masked_incremental(boxes, reference, reads)
        finally:
            self.stats.seconds += perf_counter() - start

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

    # ------------------------------------------------------------------ #
    # Snapshot maintenance
    # ------------------------------------------------------------------ #
    def _ensure_buffers(self) -> None:
        """Allocate the persistent scratch and prefix buffers once."""
        if self._buffers:
            return
        graph = self.graph
        nx, ny, n_layers = graph.nx, graph.ny, self.n_layers
        self._edge_all = np.zeros((3, n_layers, nx, ny))
        self._h_edge, self._v_edge, self._z_edge = self._edge_all
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
        self._prefix_all = np.zeros((3, n_layers, nx, ny))
        self._h_prefix, self._v_prefix, self._via_prefix = self._prefix_all
        self._edge_flat = self._edge_all.reshape(-1)
        self._prefix_flat = self._prefix_all.reshape(-1)
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

    def _masked_incremental(self, boxes, reference, reads) -> None:
        """Masked rebuild as whole-batch array operations on one plan.

        The persistent tables hold the previous masked snapshot (same
        reference): copying the previous plan's cells back from the
        reference tables and repainting the new plan's cells from
        demand reproduces a from-scratch masked rebuild bit for bit — the
        rest of the tables already equal the reference.  A reference
        change (once per stage) seeds the tables with one full copy.

        Upload accounting: only the *fresh* cells count toward
        ``last_upload_bytes`` — restores copy from the reference
        planes, which are already device-resident (uploaded once at
        seeding), so refreshing the preallocated slab in place moves
        no new host bytes for them.  This matches the from-scratch
        tally of the new boxes; without the split, every stacked launch
        reusing the scratch would double-count its predecessor's slab
        as bus traffic.
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
        previous, plan = self._masked_plan, self._mask_plan(boxes, reads)
        edge, prefix = self._edge_flat, self._prefix_flat
        if previous is not None:
            edge[previous.cells] = self._ref_edge[previous.cells]
            prefix[previous.cells] = self._ref_prefix[previous.cells]
        self._paint(plan)
        self._masked_plan = plan
        self._dev_stale = not self.backend.device_is_host
        self.stats.masked_rebuilds += 1
        if seeded:
            wire_n = sum(int(a.size) for a in self.wire_cost)
            via_n = int(self.via_cost.size)
            upload_n = wire_n + via_n
        else:
            wire_n, via_n = self._tally_edges(plan.counts)
            upload_n = wire_n + via_n
            if previous is not None:
                both = unique_sorted(np.concatenate((previous.tally, plan.tally)))
                wire_n, via_n = self._tally_edges(self._family_counts(both))
        self.stats.refreshed_wire_edges += wire_n
        self.stats.refreshed_via_edges += via_n
        self.last_upload_bytes = upload_n * self.via_cost.itemsize

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
        self._ref_edge = self._edge_flat.copy()
        self._ref_prefix = self._prefix_flat.copy()
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
        """Flush lazy prefix patches and device uploads now.  Mainly
        for tests and benchmarks that inspect the tables directly."""
        self._ensure_tables()

    def snapshot_reference(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Deep-copied ``(wire_cost, via_cost)`` for masked rebuilds.

        Callers must hold a *copy*: the snapshot refreshes its
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
            self._guard_wire(layer, (lo, y1, hi - 1, y1))
            self._flush_if_dirty()
            return float(self._h_prefix[layer, hi, y1] - self._h_prefix[layer, lo, y1])
        lo, hi = sorted((y1, y2))
        self._guard_wire(layer, (x1, lo, x1, hi - 1))
        self._flush_if_dirty()
        return float(self._v_prefix[layer, x1, hi] - self._v_prefix[layer, x1, lo])

    def via_stack_cost(self, x: int, y: int, lo: int, hi: int) -> float:
        """Return the cost of a via stack spanning layers ``lo``..``hi``."""
        if lo > hi:
            lo, hi = hi, lo
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
    "CostEngineStats",
    "CostModel",
    "CostQuery",
    "Footprint",
    "StaleCostError",
]
