"""Batched pattern routing over scheduler batches (Sec. III-C, Fig. 7).

One :meth:`BatchPatternRouter.route_batch` call is one host-side kernel
invocation sequence for a conflict-free batch of multi-pin nets:

1. build/optimise Steiner trees and bottom-up two-pin orders (the
   pattern-routing *planning* of Fig. 5);
2. freeze edge costs (a :class:`~repro.grid.cost.CostQuery` snapshot —
   exact, because in-batch nets have disjoint bounding boxes);
3. evaluate the two-pin nets wave by wave: per wave one ``combine``
   kernel (Eq. 2) and one L/Z/hybrid kernel (Eq. 7/14);
4. reconstruct routes, commit their demand.

The waves are built ACROSS nets (:func:`~repro.pattern.twopin.build_waves`
groups every job's two-pin tasks by subtree height), so the more nets
one ``route_batch`` call covers, the wider — and fewer — the stacked
kernel launches.  The scheduler exploits exactly this: with
``pattern_batching`` on, :class:`~repro.core.flow.PatternStage` fuses a
whole conflict-free dependency level (size-bucketed by net bounding-box
area) into ONE ``route_batch`` call, one padded cross-net launch per
wave depth instead of one launch sequence per net.

The array substrate is pluggable: ``backend`` selects any registered
:class:`~repro.backend.ArrayBackend` (``"numpy"`` by default,
``"python"`` for the sequential scalar baseline, ``"cupy"`` on CUDA
machines).  The chosen backend is wrapped by
:meth:`~repro.gpu.device.Device.wrap`, so every array op inside a
kernel scope is metered into the simulated device's launch records —
benchmarks report kernel-level speedups from the *actual* op stream,
not hand-derived element formulas.  The
:class:`~repro.gpu.zerocopy.ZeroCopyArena` accounts for the cost/result
traffic the zero-copy technique streams.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.route import Route
from repro.gpu.device import Device
from repro.gpu.zerocopy import ZeroCopyArena
from repro.netlist.net import Net
from repro.pattern.commit import reconstruct_route
from repro.pattern.hybrid import route_hybrid_wave
from repro.pattern.kernels import combine_children
from repro.pattern.lshape import route_lshape_wave
from repro.pattern.twopin import (
    ModeSelector,
    NetRoutingJob,
    PatternMode,
    build_waves,
)
from repro.pattern.zshape import route_zshape_wave
from repro.tree.edge_shifting import shift_edges
from repro.tree.ordering import order_tree
from repro.tree.steiner import build_steiner_tree


class BatchPatternRouter:
    """Routes conflict-free batches of nets with the GPU-friendly DP."""

    def __init__(
        self,
        graph: GridGraph,
        cost_model: Optional[CostModel] = None,
        device: Optional[Device] = None,
        arena: Optional[ZeroCopyArena] = None,
        edge_shift: bool = True,
        max_chunk_elements: int = 150_000,
        backend: Union[str, ArrayBackend] = "numpy",
        cost_engine: str = "full",
    ) -> None:
        self.graph = graph
        self.cost_model = cost_model or CostModel()
        self.device = device or Device()
        base = get_backend(backend) if isinstance(backend, str) else backend
        self.backend_name = base.name
        self.backend = self.device.wrap(base)
        self.query = CostQuery(
            graph, self.cost_model, backend=self.backend, engine=cost_engine
        )
        self.arena = arena or ZeroCopyArena()
        self.edge_shift = edge_shift
        self.max_chunk_elements = max_chunk_elements
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
        cost_reference=None,
        commit: bool = True,
    ) -> Dict[str, Route]:
        """Route a conflict-free batch; commit demand; return routes.

        With ``cost_boxes``/``cost_reference`` the snapshot is masked to
        the batch's bounding boxes (costs elsewhere pinned to the
        stage-start reference) — see
        :meth:`~repro.grid.cost.CostQuery.rebuild`.  The scheduler uses
        this so the batch's DP depends only on demand its conflicting
        predecessors committed, bit for bit.

        With ``commit=False`` the routes are returned *without*
        committing their demand.
        """
        self.query.rebuild(boxes=cost_boxes, reference=cost_reference)
        self._account_cost_upload()
        jobs = [self.make_job(net) for net in nets]
        self.route_jobs(jobs, mode_fn)
        routes: Dict[str, Route] = {}
        for job in jobs:
            route = reconstruct_route(job)
            if commit:
                route.commit(self.graph)
            routes[job.net.name] = route
        return routes

    def route_jobs(self, jobs: List[NetRoutingJob], mode_fn: ModeSelector) -> None:
        """Run the wave-by-wave DP, filling every job's state in place."""
        n_layers = self.graph.n_layers
        waves = build_waves(jobs, mode_fn)
        for wave in waves:
            combine = self._combine_phase(
                jobs, [(t.job_index, t.child) for t in wave]
            )
            l_rows = [i for i, t in enumerate(wave) if t.mode is PatternMode.LSHAPE]
            z_rows = [i for i, t in enumerate(wave) if t.mode is PatternMode.ZSHAPE]
            h_rows = [i for i, t in enumerate(wave) if t.mode is PatternMode.HYBRID]
            if l_rows:
                tasks = [wave[i] for i in l_rows]
                with self.backend.kernel("lshape", len(tasks), n_layers * n_layers):
                    values, backtracks = route_lshape_wave(
                        tasks, combine[l_rows], self.query
                    )
                self._store_edge_results(jobs, tasks, values, backtracks)
            if z_rows:
                tasks = [wave[i] for i in z_rows]
                with self.backend.kernel("zshape", len(tasks), n_layers**3):
                    values, backtracks = route_zshape_wave(
                        tasks, combine[z_rows], self.query, self.max_chunk_elements
                    )
                self._store_edge_results(jobs, tasks, values, backtracks)
            if h_rows:
                tasks = [wave[i] for i in h_rows]
                with self.backend.kernel("hybrid", len(tasks), n_layers**3):
                    values, backtracks = route_hybrid_wave(
                        tasks, combine[h_rows], self.query, self.max_chunk_elements
                    )
                self._store_edge_results(jobs, tasks, values, backtracks)
        self._root_phase(jobs)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _combine_phase(
        self, jobs: List[NetRoutingJob], nodes: List[Tuple[int, int]]
    ) -> np.ndarray:
        """Combine children costs (Eq. 2) at a wave of tree nodes.

        Stores each node's via-interval argmins in its job and returns
        the ``(B, L)`` combine matrix aligned with ``nodes``.
        """
        n_layers = self.graph.n_layers
        if not nodes:
            return np.zeros((0, n_layers))
        xp = self.backend
        child_rows: List[np.ndarray] = []
        child_node_index: List[int] = []
        xs: List[int] = []
        ys: List[int] = []
        pin_lo: List[int] = []
        pin_hi: List[int] = []
        for b, (job_index, node) in enumerate(nodes):
            job = jobs[job_index]
            for child in job.ordered.children(node):
                child_rows.append(job.node_vectors[child])
                child_node_index.append(b)
            point = job.tree.nodes[node].point
            xs.append(point.x)
            ys.append(point.y)
            lo, hi = job.pin_range(node, n_layers)
            pin_lo.append(lo)
            pin_hi.append(hi)

        child_costs = (
            np.vstack(child_rows) if child_rows else np.zeros((0, n_layers))
        )
        with xp.kernel("combine", len(nodes), n_layers * n_layers):
            via_prefix = self.query.via_prefix_at(np.array(xs), np.array(ys))
            combine, lo_choice, hi_choice = combine_children(
                child_costs,
                np.array(child_node_index, dtype=int),
                len(nodes),
                via_prefix,
                np.array(pin_lo, dtype=int),
                np.array(pin_hi, dtype=int),
                xp=xp,
            )
            combine = xp.to_numpy(combine)
            lo_choice = xp.to_numpy(lo_choice)
            hi_choice = xp.to_numpy(hi_choice)
        for b, (job_index, node) in enumerate(nodes):
            jobs[job_index].combine_store[node] = (lo_choice[b], hi_choice[b])
        return combine

    def _store_edge_results(self, jobs, tasks, values, backtracks) -> None:
        for i, task in enumerate(tasks):
            job = jobs[task.job_index]
            job.node_vectors[task.child] = values[i]
            job.edge_store[task.child] = backtracks[i]

    def _root_phase(self, jobs: List[NetRoutingJob]) -> None:
        """Close each net at its root (Eq. 4): pick the best via stack."""
        n_layers = self.graph.n_layers
        rooted = [
            (i, job.ordered.root)
            for i, job in enumerate(jobs)
            if job.ordered.n_two_pin_nets > 0
        ]
        if rooted:
            combine = self._combine_phase(jobs, rooted)
            for b, (job_index, root) in enumerate(rooted):
                job = jobs[job_index]
                best_ls = int(np.argmin(combine[b]))
                lo_choice, hi_choice = job.combine_store[root]
                job.root_interval = (int(lo_choice[best_ls]), int(hi_choice[best_ls]))
                job.total_cost = float(combine[b, best_ls])
        for job in jobs:
            if job.ordered.n_two_pin_nets == 0:
                lo, hi = job.pin_range(job.ordered.root, n_layers)
                if hi < 0:  # no pins recorded — nothing to connect
                    lo, hi = 0, 0
                job.root_interval = (min(lo, hi), max(lo, hi))
                point = job.tree.nodes[job.ordered.root].point
                job.total_cost = self.query.via_stack_cost(
                    point.x, point.y, job.root_interval[0], job.root_interval[1]
                )

    # ------------------------------------------------------------------ #
    # Transfer accounting
    # ------------------------------------------------------------------ #
    def _account_cost_upload(self) -> None:
        """Record the cost-snapshot upload the device reads per batch.

        The engine reports the deduplicated byte count of the *fresh*
        edges the last rebuild actually rewrote from demand (a masked
        rebuild only refreshes the batch's boxes; overlapping boxes
        are counted once, and in-place restores of a previous batch's
        slab to the device-resident reference are not bus traffic —
        see :meth:`~repro.grid.cost.CostQuery` masked accounting), so
        the zero-copy arena accounts exactly what crosses the bus.  A
        rebuild that moved nothing records no transfer at all — a
        stacked launch reusing the resident slab must not book a
        phantom bus transaction.
        """
        n_bytes = self.query.last_upload_bytes
        if n_bytes:
            self.arena.send(n_bytes)


__all__ = ["BatchPatternRouter"]
