"""Batched pattern routing over scheduler batches (Sec. III-C, Fig. 7).

One :meth:`BatchPatternRouter.route_batch` call is one host-side kernel
invocation sequence for a conflict-free batch of multi-pin nets:

1. plan the batch (the pattern-routing *planning* of Fig. 5) with
   :func:`~repro.pattern.plan.plan_level`: Steiner trees and bottom-up
   two-pin orders — in closed form for nets with at most three pin
   G-cells, through :meth:`~BatchPatternRouter.make_job` for the rest —
   laid out as one node table and its waves;
2. freeze edge costs (a :class:`~repro.grid.cost.CostQuery` snapshot —
   exact, because in-batch nets have disjoint bounding boxes), painting
   only the lines the planned kernels will read;
3. evaluate the two-pin nets wave by wave: per wave one ``combine``
   kernel (Eq. 2) and one L/Z/hybrid kernel (Eq. 7/14);
4. reconstruct the routes of the whole batch in one backtrace
   (:func:`~repro.pattern.commit.reconstruct_table`) and commit their
   demand with one scatter (:func:`~repro.grid.route.commit_table`).

What a call costs is a fixed sequence of array operations whatever the
number of nets, over the cells its nets touch: the nets are laid out as
one node table (:class:`~repro.pattern.twopin.BatchState`) with its read
footprint, a wave is a row-index array into it, each kernel prices its
whole wave with one stacked segment query and one stacked via query and
its outputs are written into ``(N, L)`` state arrays by row index, and
the backtrace descends all nets level by level.  The only per-net
Python left is planning the nets with four or more pin cells and
building the ``Route`` objects.

The waves are built ACROSS nets (the planner groups every net's two-pin
nets by subtree height), so the more nets one ``route_batch`` call
covers, the wider — and fewer — the stacked kernel launches.  The
scheduler exploits exactly this:
:class:`~repro.core.flow.PatternStage` fuses a whole conflict-free
dependency level (size-bucketed by net bounding-box
area) into ONE ``route_batch`` call, one padded cross-net launch per
wave depth instead of one launch sequence per net.

The array substrate is pluggable: ``backend`` selects any registered
:class:`~repro.backend.ArrayBackend` (``"numpy"`` by default,
``"python"`` for the sequential scalar baseline).  The chosen backend is wrapped by
:meth:`~repro.gpu.device.Device.wrap`, so every array op inside a
kernel scope is metered into the simulated device's launch records —
benchmarks report kernel-level speedups from the *actual* op stream,
not hand-derived element formulas.  The cost snapshot counts the bytes
each rebuild streams to the kernels into the run's tracker (see
:mod:`repro.grid.cost`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.grid.cost import CostModel, CostQuery, Footprint
from repro.grid.graph import GridGraph
from repro.grid.route import Route, commit_table, routes_from_table
from repro.gpu.device import Device
from repro.netlist.net import Net
# reconstruct_route is not called here; benchmarks/e2e/trace.py wraps
# it under this module's name.
from repro.pattern.commit import reconstruct_route, reconstruct_table  # noqa: F401
from repro.pattern.hybrid import route_hybrid_wave
from repro.pattern.kernels import LayerTables, combine_children
from repro.pattern.lshape import route_lshape_wave
from repro.pattern.plan import NetCells, plan_jobs, plan_level
from repro.pattern.twopin import BatchState, ModeSelector, NetRoutingJob
from repro.pattern.zshape import route_zshape_wave
from repro.tree.edge_shifting import shift_edges
from repro.tree.ordering import order_tree
from repro.tree.steiner import build_steiner_tree
from repro.utils.timing import Tracker


class BatchPatternRouter:
    """Routes conflict-free batches of nets with the GPU-friendly DP."""

    def __init__(
        self,
        graph: GridGraph,
        cost_model: Optional[CostModel] = None,
        device: Optional[Device] = None,
        tracker: Optional[Tracker] = None,
        edge_shift: bool = True,
        backend: Union[str, ArrayBackend] = "numpy",
    ) -> None:
        self.graph = graph
        self.cost_model = cost_model or CostModel()
        self.device = device or Device()
        base = get_backend(backend) if isinstance(backend, str) else backend
        self.backend_name = base.name
        self.backend = self.device.wrap(base)
        #: The run's counters (a private tracker when none is passed);
        #: the cost snapshot counts into it too.
        self.tracker = tracker if tracker is not None else Tracker()
        self.query = CostQuery(
            graph, self.cost_model, backend=self.backend, tracker=self.tracker
        )
        self.edge_shift = edge_shift
        n_layers = graph.n_layers
        self._tables = LayerTables(self.backend, n_layers)
        # Per pattern family, in ``twopin.MODES`` order: launch name,
        # threads per block and wave driver.
        self._kernels = (
            ("lshape", n_layers * n_layers, route_lshape_wave),
            ("zshape", n_layers**3, route_zshape_wave),
            ("hybrid", n_layers**3, route_hybrid_wave),
        )
        # Optional shared cache of unshifted Steiner topologies (set by
        # the session-aware pattern stage); ``make_job`` consults it.
        self.steiner_cache = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def make_job(self, net: Net) -> NetRoutingJob:
        """Plan one net: Steiner tree, edge shifting, intranet order.

        Tree topology is a pure function of the pins, so a session's
        shared Steiner cache can serve it; edge shifting then adapts
        the (private) copy to live demand.
        """
        if self.steiner_cache is not None:
            tree = self.steiner_cache.tree(net)
        else:
            tree = build_steiner_tree(net)
        if self.edge_shift:
            shift_edges(tree, self.graph)
        return NetRoutingJob(net, tree, order_tree(tree))

    def route_batch(
        self,
        nets: List[Net],
        mode_fn: ModeSelector,
        cost_boxes=None,
        commit: bool = True,
        cells: Optional[NetCells] = None,
    ) -> Dict[str, Route]:
        """Route a conflict-free batch; commit demand; return routes.

        With ``cost_boxes`` the snapshot is masked to the batch's
        bounding boxes — ``cost_boxes[i]`` is ``nets[i]``'s — and, inside
        them, to the lines the planned kernels read (costs elsewhere
        pinned to the snapshot's last full rebuild, which the
        constructor made); see :meth:`~repro.grid.cost.CostQuery.rebuild`.
        The scheduler uses this so the batch's DP depends only on demand
        its conflicting predecessors committed, bit for bit.  Planning comes first: edge
        shifting reads demand, not the snapshot.

        With ``commit=False`` the routes are returned *without*
        committing their demand.  ``cells`` are the nets'
        :class:`~repro.pattern.plan.NetCells` if the caller has them.
        """
        states = self.plan_nets(nets, mode_fn, cells)
        reads = states[0].reads if len(states) == 1 else Footprint(
            *(np.hstack(family) for family in zip(*(s.reads for s in states)))
        )
        self.query.rebuild(boxes=cost_boxes, reads=reads)
        # The states cover ``nets`` in order, a route per net each: their
        # tables side by side hold the routes' rows route after route.
        tables, routed = [], []
        for state in self.route_jobs([], mode_fn, states):
            tables.append(reconstruct_table(state))
            routed += routes_from_table(tables[-1], state.n_jobs)
        if commit:
            commit_table(
                self.graph, tables[0] if len(tables) == 1 else np.hstack(tables), routed
            )
        return {net.name: route for net, route in zip(nets, routed)}

    def plan_nets(
        self, nets: List[Net], mode_fn: ModeSelector, cells: Optional[NetCells] = None
    ) -> List[BatchState]:
        """Plan ``nets`` for the DP: one batch state for all of them."""
        graph = self.graph
        return [plan_level(nets, mode_fn, graph.n_layers, graph.ny, self.make_job, cells=cells)]

    def plan_waves(
        self, jobs: List[NetRoutingJob], mode_fn: ModeSelector
    ) -> List[BatchState]:
        """Lay planned ``jobs`` out for the DP: one batch state for all of them."""
        return [plan_jobs(jobs, mode_fn, self.graph.n_layers, self.graph.ny)]

    def route_jobs(
        self, jobs: List[NetRoutingJob], mode_fn: ModeSelector, states=None
    ) -> List[BatchState]:
        """Run the wave-by-wave DP on ``states`` (or on the states
        ``plan_waves`` makes of ``jobs``); return them."""
        if states is None:
            states = self.plan_waves(jobs, mode_fn)
        for state in states:
            for wave, bounds, kids, kid_slot in zip(
                state.waves, state.mode_bounds, state.kids, state.kid_slot
            ):
                combine = self._combine_phase(state, wave, kids, kid_slot)
                for (name, threads, route_wave), lo, hi in zip(
                    self._kernels, bounds, bounds[1:]
                ):
                    if lo == hi:
                        continue
                    rows = wave[lo:hi]
                    with self.backend.kernel(name, hi - lo, threads):
                        state.values[rows], state.path[rows] = route_wave(
                            state.ends[:, rows], combine[lo:hi], self.query
                        )
            self._root_phase(state)
        return states

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _combine_phase(
        self,
        state: BatchState,
        rows: np.ndarray,
        kids: np.ndarray,
        kid_slot: np.ndarray,
    ) -> np.ndarray:
        """Combine children costs (Eq. 2) at the nodes ``rows``.

        ``kids`` are the child rows of those nodes and ``kid_slot`` the
        position in ``rows`` of each one's parent.  Stores the nodes'
        via-stack argmins and returns the ``(B, L)`` combine matrix.
        """
        n_layers = self.graph.n_layers
        xp = self.backend
        pin_lo, pin_hi, x, y = state.table[2:6, rows]
        with xp.kernel("combine", rows.size, n_layers * n_layers):
            combine, lo_choice, hi_choice = combine_children(
                state.values[kids],
                kid_slot,
                rows.size,
                self.query.via_prefix_at(x, y),
                pin_lo,
                pin_hi,
                xp=xp,
                tables=self._tables,
            )
            combine = xp.to_numpy(combine)
            state.stack[rows, :, 0] = xp.to_numpy(lo_choice)
            state.stack[rows, :, 1] = xp.to_numpy(hi_choice)
        return combine

    def _root_phase(self, state: BatchState) -> None:
        """Close each net at its root (Eq. 4): pick the best via stack."""
        roots, singles = state.roots, state.single_roots
        if roots.size:
            combine = self._combine_phase(state, roots, state.kids[-1], state.kid_slot[-1])
            best = combine.argmin(axis=1)
            state.chosen[roots, :2] = state.stack[roots, best]
            state.total_cost[state.job[roots]] = combine[np.arange(roots.size), best]
        if singles.size:
            # Single-G-cell nets: a via stack covering the pin layers.
            lo, hi, x, y = state.table[2:6, singles]
            prefix = self.backend.to_numpy(self.query.via_prefix_at(x, y))
            each = np.arange(singles.size)
            state.chosen[singles, 0], state.chosen[singles, 1] = lo, hi
            state.total_cost[state.job[singles]] = prefix[each, hi] - prefix[each, lo]
        # A root's "two-pin net" is the point on top of its stack.
        roots = np.concatenate([roots, singles])
        state.chosen[roots, 2:5] = state.chosen[roots, 1:2]
        state.chosen[roots, 5:] = state.ends[:, roots].T


__all__ = ["BatchPatternRouter"]
