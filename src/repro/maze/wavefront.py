"""Batched wavefront maze routing: sweep relaxation on the array backend.

The scalar Dijkstra of :mod:`repro.maze.router` settles one node per
heap pop — inherently sequential, and the rip-up stage's bottleneck
once pattern routing runs as batched min-plus kernels.  This engine
computes the *same* shortest-path distances as dense array operations
on the pluggable :class:`~repro.backend.ArrayBackend`, the exact
reformulation the paper applies to pattern routing (and GAP-LA applies
to layer assignment): replace per-node control flow with whole-region
data-parallel sweeps.

How one relaxation pass works
-----------------------------
Let ``P`` be the prefix sum of edge costs along a row of a horizontal
layer (``P[i]`` = cost of the straight run from column 0 to ``i``).
The cost of the straight run ``j -> i`` (``j <= i``) is ``P[i] - P[j]``,
so relaxing *every* rightward wire run of a row at once is

    dist'[i] = min_{j <= i} (dist[j] + P[i] - P[j])
             = P[i] + cummin(dist - P)[i]

— one subtract, one ``cummin`` scan, one add, for all rows of all
layers simultaneously.  Leftward runs are the same sweep on the flipped
axis; columns of vertical layers sweep along ``y``; via stacks sweep
along the layer axis with the via-cost prefix.  One *pass* applies all
six sweeps; passes repeat until the distance field stops changing.

The stacked batch layout
------------------------
All fields are stored as ``(B, L, nx, ny)`` stacks: ``B`` independent
net subproblems, each embedded at local origin ``(0, 0)`` of a slab
padded to the widest member (``nx = max width``, ``ny = max height``).
The sweeps never scan the batch axis, so members cannot exchange
values; padding cells carry zero-cost edges and are reset to ``+inf``
once per pass via a validity mask, which keeps them from ever lowering
a real cell mid-pass (the only sweeps that read a contaminated padding
cell run along lanes that are entirely padding).  Per-member
convergence is detected *on the device* — an elementwise stability
test reduced to one flag per member, so each pass downloads ``B``
floats instead of ``B`` distance slabs — and a converged member is
frozen (its slab stops updating) so the single download at the end
returns exactly the field of its first stable pass.  That makes a
batched member's distance field, and hence its descent path, **bit
identical** to what a per-net run of the same subproblem produces; the
per-net path (``route_net``) simply runs the same machinery with
``B = 1``.

Why the fixpoint is exact
-------------------------
Each sweep only ever lowers ``dist`` to the cost of a real path (a
straight run appended to an already-found path), and any shortest path
is a sequence of at most a few dozen straight runs — pass ``k`` has
relaxed every path of ``<= 3k`` runs.  Since edge costs are positive,
the sweeps converge to the unique fixpoint of the Bellman equations,
i.e. the exact Dijkstra distance field (associating the additions
per *run* rather than per edge, so floats may differ from scalar
Dijkstra in the last ULPs — routes are equal-cost, not bit-equal).

Paths are reconstructed by greedy descent over the distance field:
from the target, repeatedly step to the neighbour minimising
``dist[n] + edge(n -> current)`` until a source is reached.  Every
step descends by at least one unit edge cost, so the walk terminates
without parent pointers — the field *is* the routing table.

Device residency and metering
-----------------------------
Execution is wrapped in :meth:`Device.kernel` scopes when a device is
attached, so wavefront launches, element counts and host<->device
transfer bytes appear in the run's device statistics next to the
pattern kernels.  The scope taxonomy is:

* ``wavefront_setup`` — edge-table and seed uploads (host-to-device);
* ``wavefront_relax`` — the sweep passes, pure device compute (the
  residency tests assert these launches move **zero** bytes);
* ``wavefront_sync`` — per-pass convergence flags, ``B * 8`` bytes
  down per pass plus the occasional refreshed freeze mask;
* ``wavefront_gather`` — the one distance-field download per search.

Host-side prefix twins (needed by the host descent walk) are
recomputed with host ``cumsum`` — bit-identical to the device scan by
the backend contract — instead of being downloaded, so no plane-sized
device-to-host transfer happens anywhere in the relax loop.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.grid.cost import CostModel, CostQuery
from repro.grid.graph import GridGraph
from repro.grid.route import Route
from repro.maze.router import GridNode, MazeRouter, MazeRoutingError
from repro.netlist.net import Net
from repro.pattern.commit import normalize_route


class SweepTables:
    """Per-net region tables shared by the splice searches of one net."""

    __slots__ = (
        "width", "height", "n_layers",
        "h_prefix", "v_prefix", "z_prefix",  # device (L, W, H) prefixes
        "h_mask", "v_mask",                  # device (L, 1, 1) bool masks
        "h_prefix_np", "v_prefix_np", "z_prefix_np",  # host twins
        "h_layers", "v_layers",              # host bool per layer
    )


class StackedTables:
    """Batch tables: ``(B, L, nx, ny)`` device prefixes + padding mask."""

    __slots__ = (
        "n_layers", "wmax", "hmax",
        "h_prefix", "v_prefix", "z_prefix",  # device (B, L, nx, ny)
        "h_mask", "v_mask",                  # device (L, 1, 1) bool masks
        "valid",                             # device (B, 1, nx, ny) or None
        "h_prefix_np", "v_prefix_np", "z_prefix_np",  # host twins
        "h_layers", "v_layers",
    )


class _BatchMember:
    """Mutable routing state of one net inside a stacked batch."""

    __slots__ = (
        "name", "pins", "region", "width", "height",
        "component", "remaining", "route", "tables", "error",
    )

    def __init__(self, name: str, pins: List[GridNode], region) -> None:
        self.name = name
        self.pins = pins
        self.region = region
        self.width = region[2] - region[0] + 1
        self.height = region[3] - region[1] + 1
        self.component: Set[GridNode] = {pins[0]}
        self.remaining: Set[GridNode] = set(pins[1:])
        self.route = Route()
        self.tables: Optional[SweepTables] = None
        self.error: Optional[MazeRoutingError] = None


class WavefrontMazeRouter(MazeRouter):
    """Sweep-relaxation 3-D router over a cost snapshot.

    Drop-in replacement for :class:`MazeRouter`: same multi-pin loop,
    same search regions, same cost snapshot — only the per-splice
    search runs as dense backend sweeps instead of a scalar heap.
    Additionally exposes :meth:`route_batch`, which relaxes a whole
    batch of non-conflicting nets as one stacked fixpoint sweep.
    """

    engine_name = "wavefront"
    supports_batch = True

    def __init__(
        self,
        graph: GridGraph,
        cost_model: Optional[CostModel] = None,
        margin: int = 6,
        query: Optional[CostQuery] = None,
        backend: "ArrayBackend | str" = "numpy",
        device=None,
    ) -> None:
        super().__init__(graph, cost_model, margin=margin, query=query)
        xp = get_backend(backend) if isinstance(backend, str) else backend
        if device is not None:
            xp = device.wrap(xp)
        self.xp = xp
        # Fixpoint pass counter of the last search (observability).
        self.last_n_passes = 0

    # ------------------------------------------------------------------ #
    # Batched entry point
    # ------------------------------------------------------------------ #
    def route_batch(
        self, nets: Sequence[Net], rebuild: bool = True
    ) -> Dict[str, Optional[Route]]:
        """Route a batch of nets with pairwise-disjoint search regions.

        Returns ``{net name: route}`` with ``None`` marking members
        whose search failed (the batched analogue of the
        :class:`MazeRoutingError` a per-net ``route_net`` would raise
        — per-member, so one stuck net never poisons the batch).

        The caller guarantees the members do not conflict (disjoint
        search-region footprints); the batch dispatcher feeds dependency
        levels of the ordered task graph, which have that property by
        construction.  Under it, the returned routes are bit-identical
        to routing the members one at a time in any order.
        """
        results: Dict[str, Optional[Route]] = {}
        members: List[_BatchMember] = []
        for net in nets:
            region = self._region(net)
            if rebuild:
                self.query.rebuild(window=region)
            pins = sorted({pin.as_node() for pin in net.pins})
            if len(pins) == 1:
                results[net.name] = Route()
                continue
            members.append(_BatchMember(net.name, pins, region))
        if not members:
            return results

        stacked = self._build_batch_tables([m.region for m in members])
        for b, member in enumerate(members):
            member.tables = self._member_tables(stacked, b, member)

        n_layers = self.graph.n_layers
        n_members = len(members)
        caps = [2 * (m.width + m.height + n_layers) + 8 for m in members]
        sizes = [n_layers * m.width * m.height for m in members]

        # Each round performs one splice search per still-active member
        # (multi-pin nets need one search per extra pin); members drop
        # out as they finish or fail, and finished members ride along
        # as frozen all-inf slabs.
        while True:
            seeds_by_member: Dict[int, Tuple[List[GridNode], List[GridNode]]] = {}
            init = None
            active = [False] * n_members
            for b, member in enumerate(members):
                if member.error is not None or not member.remaining:
                    continue
                x0, y0, x1, y1 = member.region
                seeds = [
                    s for s in member.component
                    if x0 <= s[0] <= x1 and y0 <= s[1] <= y1
                ]
                in_region = [
                    t for t in member.remaining
                    if x0 <= t[0] <= x1 and y0 <= t[1] <= y1
                ]
                if not seeds or not in_region:
                    member.error = MazeRoutingError("pins outside search region")
                    continue
                if init is None:
                    init = np.full(
                        (n_members, n_layers, stacked.wmax, stacked.hmax), np.inf
                    )
                for x, y, layer in seeds:
                    init[b, layer, x - x0, y - y0] = 0.0
                seeds_by_member[b] = (seeds, in_region)
                active[b] = True
            if not seeds_by_member:
                break

            with self._kernel(
                "wavefront_setup", n_members, n_layers * stacked.wmax * stacked.hmax
            ):
                dist = self.xp.asarray(init)
            host, passes, failed = self._relax_stacked(
                dist, stacked, caps, active, sizes
            )
            self.last_n_passes = max(passes)

            for b, (seeds, in_region) in seeds_by_member.items():
                member = members[b]
                if failed[b]:
                    member.error = MazeRoutingError(
                        "wavefront relaxation did not converge within "
                        f"{caps[b]} passes"
                    )
                    continue
                field = host[b]
                x0, y0 = member.region[0], member.region[1]
                width, height = member.width, member.height

                def encode(node: GridNode) -> int:
                    x, y, layer = node
                    return (layer * width + (x - x0)) * height + (y - y0)

                reached = min(
                    in_region,
                    key=lambda t: (field[t[2], t[0] - x0, t[1] - y0], encode(t)),
                )
                if not np.isfinite(field[reached[2], reached[0] - x0, reached[1] - y0]):
                    member.error = MazeRoutingError(
                        "maze search exhausted without reaching a pin"
                    )
                    continue
                try:
                    path = self._descend(
                        field, reached, set(seeds), member.region, member.tables
                    )
                except MazeRoutingError as exc:
                    member.error = exc
                    continue
                self._splice(member.route, path)
                member.component.update(path)
                member.remaining.discard(reached)

        for member in members:
            if member.error is not None:
                results[member.name] = None
            else:
                results[member.name] = normalize_route(member.route)
        return results

    # ------------------------------------------------------------------ #
    # Engine seams
    # ------------------------------------------------------------------ #
    def _region_edges(
        self, region: Tuple[int, int, int, int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gather the region's host-side edge-cost planes.

        Row/column 0 of each plane is the zero pad (exclusive prefix),
        exactly like :class:`~repro.grid.cost.CostQuery`; layers of the
        wrong direction keep all-zero planes and are masked out when
        the sweep result is applied.
        """
        x0, y0, x1, y1 = region
        width = x1 - x0 + 1
        height = y1 - y0 + 1
        n_layers = self.graph.n_layers
        stack = self.graph.stack

        h_edge = np.zeros((n_layers, width, height))
        v_edge = np.zeros((n_layers, width, height))
        h_layers = np.zeros(n_layers, dtype=bool)
        for layer in range(n_layers):
            cost = self.query.wire_cost[layer]
            if stack.is_horizontal(layer):
                h_layers[layer] = True
                h_edge[layer, 1:, :] = cost[x0:x1, y0 : y1 + 1]
            else:
                v_edge[layer, :, 1:] = cost[x0 : x1 + 1, y0:y1]
        z_edge = np.zeros((n_layers, width, height))
        z_edge[1:] = self.query.via_cost[:, x0 : x1 + 1, y0 : y1 + 1]
        return h_edge, v_edge, z_edge, h_layers

    def _build_tables(self, region: Tuple[int, int, int, int]) -> SweepTables:
        """Upload the region's edge-cost prefixes to the backend.

        The device twins are scanned on the device; the host twins (for
        the descent walk) are recomputed with host ``cumsum`` — bit
        identical by the backend contract — so nothing is downloaded.
        """
        h_edge, v_edge, z_edge, h_layers = self._region_edges(region)
        n_layers, width, height = h_edge.shape

        xp = self.xp
        tables = SweepTables()
        tables.width = width
        tables.height = height
        tables.n_layers = n_layers
        tables.h_layers = h_layers
        tables.v_layers = ~h_layers
        with self._kernel("wavefront_setup", width * height, n_layers):
            tables.h_prefix = xp.cumsum(xp.asarray(h_edge), axis=1)
            tables.v_prefix = xp.cumsum(xp.asarray(v_edge), axis=2)
            tables.z_prefix = xp.cumsum(xp.asarray(z_edge), axis=0)
            tables.h_mask = xp.asarray(h_layers[:, None, None], dtype="bool")
            tables.v_mask = xp.asarray(tables.v_layers[:, None, None], dtype="bool")
        tables.h_prefix_np = np.cumsum(h_edge, axis=1)
        tables.v_prefix_np = np.cumsum(v_edge, axis=2)
        tables.z_prefix_np = np.cumsum(z_edge, axis=0)
        return tables

    def _build_batch_tables(
        self, regions: Sequence[Tuple[int, int, int, int]]
    ) -> StackedTables:
        """Build the stacked ``(B, L, nx, ny)`` tables for a batch.

        Members narrower than the widest one are zero-padded: padding
        edges cost nothing, but padding *cells* are pinned to ``+inf``
        once per pass via the ``valid`` mask, so values can never
        tunnel through the pad back into a real cell (see the module
        docstring for the lane argument).  Zero-cost padding also keeps
        every real prefix entry bitwise equal to its per-net value —
        appending zeros to a ``cumsum`` lane does not change the
        partial sums before them.
        """
        n_members = len(regions)
        n_layers = self.graph.n_layers
        widths = [r[2] - r[0] + 1 for r in regions]
        heights = [r[3] - r[1] + 1 for r in regions]
        wmax = max(widths)
        hmax = max(heights)

        h_edge = np.zeros((n_members, n_layers, wmax, hmax))
        v_edge = np.zeros((n_members, n_layers, wmax, hmax))
        z_edge = np.zeros((n_members, n_layers, wmax, hmax))
        ragged = False
        valid = np.zeros((n_members, 1, wmax, hmax), dtype=bool)
        h_layers = np.zeros(n_layers, dtype=bool)
        for b, region in enumerate(regions):
            mh, mv, mz, h_layers = self._region_edges(region)
            w, h = widths[b], heights[b]
            h_edge[b, :, :w, :h] = mh
            v_edge[b, :, :w, :h] = mv
            z_edge[b, :, :w, :h] = mz
            valid[b, 0, :w, :h] = True
            ragged = ragged or w < wmax or h < hmax

        xp = self.xp
        tables = StackedTables()
        tables.n_layers = n_layers
        tables.wmax = wmax
        tables.hmax = hmax
        tables.h_layers = h_layers
        tables.v_layers = ~h_layers
        with self._kernel("wavefront_setup", n_members, n_layers * wmax * hmax):
            tables.h_prefix = xp.cumsum(xp.asarray(h_edge), axis=2)
            tables.v_prefix = xp.cumsum(xp.asarray(v_edge), axis=3)
            tables.z_prefix = xp.cumsum(xp.asarray(z_edge), axis=1)
            tables.h_mask = xp.asarray(h_layers[:, None, None], dtype="bool")
            tables.v_mask = xp.asarray(tables.v_layers[:, None, None], dtype="bool")
            tables.valid = xp.asarray(valid, dtype="bool") if ragged else None
        tables.h_prefix_np = np.cumsum(h_edge, axis=2)
        tables.v_prefix_np = np.cumsum(v_edge, axis=3)
        tables.z_prefix_np = np.cumsum(z_edge, axis=1)
        return tables

    @staticmethod
    def _member_tables(
        stacked: StackedTables, b: int, member: _BatchMember
    ) -> SweepTables:
        """Per-member host view used by the descent walk and tie-breaks.

        ``width``/``height`` are the member's *own* region dims (the
        tie-break encoding must match a per-net run exactly); the host
        prefix planes are padded views into the stack — the descent
        only ever indexes inside the member's region.
        """
        tables = SweepTables()
        tables.width = member.width
        tables.height = member.height
        tables.n_layers = stacked.n_layers
        tables.h_layers = stacked.h_layers
        tables.v_layers = stacked.v_layers
        tables.h_prefix_np = stacked.h_prefix_np[b]
        tables.v_prefix_np = stacked.v_prefix_np[b]
        tables.z_prefix_np = stacked.z_prefix_np[b]
        return tables

    def _search(
        self,
        sources: set,
        targets: set,
        region: Tuple[int, int, int, int],
        tables: SweepTables,
    ) -> Tuple[List[GridNode], GridNode]:
        x0, y0, x1, y1 = region
        in_region = [
            t for t in targets if x0 <= t[0] <= x1 and y0 <= t[1] <= y1
        ]
        seeds = [
            s for s in sources if x0 <= s[0] <= x1 and y0 <= s[1] <= y1
        ]
        if not in_region or not seeds:
            raise MazeRoutingError("pins outside search region")

        field = self._distance_field(seeds, region, tables)

        # Nearest unconnected pin, ties broken like the Dijkstra heap:
        # smallest (distance, encoded index) settles first.
        def encode(node: GridNode) -> int:
            x, y, layer = node
            return (layer * tables.width + (x - x0)) * tables.height + (y - y0)

        reached = min(
            in_region,
            key=lambda t: (field[t[2], t[0] - x0, t[1] - y0], encode(t)),
        )
        if not np.isfinite(field[reached[2], reached[0] - x0, reached[1] - y0]):
            raise MazeRoutingError("maze search exhausted without reaching a pin")
        path = self._descend(field, reached, set(seeds), region, tables)
        return path, reached

    # ------------------------------------------------------------------ #
    # Distance field: fixpoint of the segment sweeps
    # ------------------------------------------------------------------ #
    def _distance_field(
        self,
        seeds: List[GridNode],
        region: Tuple[int, int, int, int],
        tables: SweepTables,
    ) -> np.ndarray:
        """Return the exact multi-source distance field as host NumPy.

        The per-net path is the stacked machinery with ``B = 1``: the
        per-net device tables gain a leading batch axis (a zero-copy
        view), and the same fixpoint loop runs with no padding mask.
        """
        x0, y0, _, _ = region
        xp = self.xp
        init = np.full((1, tables.n_layers, tables.width, tables.height), np.inf)
        for x, y, layer in seeds:
            init[0, layer, x - x0, y - y0] = 0.0
        with self._kernel(
            "wavefront_setup", 1, tables.n_layers * tables.width * tables.height
        ):
            dist = xp.asarray(init)

        stacked = StackedTables()
        stacked.n_layers = tables.n_layers
        stacked.wmax = tables.width
        stacked.hmax = tables.height
        stacked.h_prefix = xp.expand_dims(tables.h_prefix, 0)
        stacked.v_prefix = xp.expand_dims(tables.v_prefix, 0)
        stacked.z_prefix = xp.expand_dims(tables.z_prefix, 0)
        stacked.h_mask = tables.h_mask
        stacked.v_mask = tables.v_mask
        stacked.valid = None

        # A shortest path is a sequence of straight runs; each pass
        # relaxes three more (one per axis), so the staircase worst case
        # still converges within the region perimeter.  The cap is a
        # safety net, not a tuning knob.
        max_passes = 2 * (tables.width + tables.height + tables.n_layers) + 8
        host, passes, failed = self._relax_stacked(
            dist, stacked, [max_passes], [True], [init.size]
        )
        if failed[0]:
            raise MazeRoutingError(
                "wavefront relaxation did not converge within "
                f"{max_passes} passes"
            )
        self.last_n_passes = passes[0]
        return host[0]

    def _relax_stacked(
        self,
        dist,
        tables: StackedTables,
        caps: List[int],
        active: List[bool],
        sizes: List[int],
    ) -> Tuple[np.ndarray, List[int], List[bool]]:
        """Run the stacked fixpoint loop to per-member convergence.

        ``dist`` is the seeded device ``(B, L, nx, ny)`` field; members
        start ``active`` (pre-frozen members ride along untouched).
        Returns ``(host fields, per-member pass counts, failed flags)``
        where a member's field is exactly the field of its *first*
        stable pass: once stable, a member is frozen via the active
        mask so later passes (run for slower batch mates) cannot drift
        its values by further ULPs — the bit-identity anchor.

        Convergence is tested on the device and reduced to one flag per
        member; only that ``(B,)`` vector is downloaded per pass.  A
        member that exceeds its own pass cap is marked failed and
        frozen, never stalling the rest of the batch.
        """
        xp = self.xp
        n_members = len(caps)
        threads = tables.n_layers * tables.wmax * tables.hmax
        passes = [0] * n_members
        failed = [False] * n_members
        active = list(active)
        active_dev = None
        if not all(active):
            with self._kernel("wavefront_sync", n_members, 1):
                active_dev = self._upload_active(active)

        global_cap = max(
            (caps[b] for b in range(n_members) if active[b]), default=0
        )
        for n_pass in range(1, global_cap + 1):
            with self._kernel("wavefront_relax", n_members, threads):
                swept = self._apply_sweep(dist, tables.h_prefix, 2, tables.h_mask)
                swept = self._apply_sweep(swept, tables.v_prefix, 3, tables.v_mask)
                swept = self._apply_sweep(swept, tables.z_prefix, 1, None)
                if tables.valid is not None:
                    swept = xp.where(tables.valid, swept, np.inf)
                if active_dev is not None:
                    swept = xp.where(active_dev, swept, dist)
            # Fixpoint up to float noise: re-associating P[i] + (d - P)
            # can drop a converged entry by an ULP every pass, so exact
            # bit-stability may never arrive.  Improvements bounded by
            # 1e-12 relative are that drift (edge costs are >= 1);
            # anything larger is a real relaxation still in flight.
            # The tolerance comes from the *new* values — still-inf
            # entries would make an inf tolerance swallow first reaches.
            # (inf - inf is NaN, which correctly fails the <= test; the
            # equality arm catches the both-still-inf case.)
            with self._kernel("wavefront_sync", n_members, 1):
                with np.errstate(invalid="ignore"):
                    eq = xp.equal(swept, dist)
                    tol = xp.multiply(1e-12, xp.maximum(1.0, xp.abs(swept)))
                    ok = xp.less_equal(xp.subtract(dist, swept), tol)
                    stable = xp.logical_or(eq, ok)
                    flags, _ = xp.min_argmin(
                        xp.reshape(xp.astype(stable, "float"), (n_members, -1)), 1
                    )
                    member_stable = xp.to_numpy(flags)
            dist = swept
            changed = False
            for b in range(n_members):
                if not active[b]:
                    continue
                self._visited_nodes += sizes[b]
                if member_stable[b] >= 1.0:
                    passes[b] = n_pass
                    active[b] = False
                    changed = True
                elif n_pass >= caps[b]:
                    passes[b] = n_pass
                    failed[b] = True
                    active[b] = False
                    changed = True
            if not any(active):
                break
            if changed:
                with self._kernel("wavefront_sync", n_members, 1):
                    active_dev = self._upload_active(active)

        for b in range(n_members):
            if active[b]:  # pragma: no cover — global cap covers all members
                failed[b] = True
        with self._kernel("wavefront_gather", n_members, 1):
            host = xp.to_numpy(dist)
        return host, passes, failed

    def _upload_active(self, active: List[bool]):
        """Upload the freeze mask as a broadcastable ``(B, 1, 1, 1)``."""
        mask = np.array(active, dtype=bool).reshape(len(active), 1, 1, 1)
        return self.xp.asarray(mask, dtype="bool")

    def _apply_sweep(self, dist, prefix, axis: int, mask):
        """Relax every straight run along ``axis``, both directions.

        ``prefix`` holds the inclusive edge-cost prefix along ``axis``
        (zero-padded at index 0); ``mask`` selects the layers whose
        preferred direction allows the move (None = all layers).
        """
        xp = self.xp
        # Forward runs j -> i (j <= i): P[i] + cummin(dist - P)[i].
        fwd = xp.add(prefix, xp.cummin(xp.subtract(dist, prefix), axis))
        # Backward runs j -> i (j >= i): revcummin(dist + P)[i] - P[i].
        rev = xp.flip(
            xp.cummin(xp.flip(xp.add(dist, prefix), axis), axis), axis
        )
        bwd = xp.subtract(rev, prefix)
        relaxed = xp.minimum(dist, xp.minimum(fwd, bwd))
        if mask is None:
            return relaxed
        return xp.where(mask, relaxed, dist)

    # ------------------------------------------------------------------ #
    # Path reconstruction: greedy descent over the field
    # ------------------------------------------------------------------ #
    def _descend(
        self,
        field: np.ndarray,
        target: GridNode,
        sources: Set[GridNode],
        region: Tuple[int, int, int, int],
        tables: SweepTables,
    ) -> List[GridNode]:
        """Walk the field from ``target`` down to any source node.

        Edge costs are read as prefix differences — the same floats the
        sweeps used — so the predecessor minimising ``dist + edge`` is
        always strictly downhill (unit edge costs dwarf ULP noise).
        """
        x0, y0, x1, y1 = region
        hp, vp, zp = tables.h_prefix_np, tables.v_prefix_np, tables.z_prefix_np
        h_layers = tables.h_layers
        path: List[GridNode] = [target]
        cur = target
        for _ in range(field.size):
            if cur in sources:
                path.reverse()
                return path
            x, y, layer = cur
            i, j = x - x0, y - y0
            here = field[layer, i, j]
            best = None
            if h_layers[layer]:
                if x > x0:
                    cost = hp[layer, i, j] - hp[layer, i - 1, j]
                    cand = (field[layer, i - 1, j] + cost, (x - 1, y, layer))
                    best = cand if best is None or cand[0] < best[0] else best
                if x < x1:
                    cost = hp[layer, i + 1, j] - hp[layer, i, j]
                    cand = (field[layer, i + 1, j] + cost, (x + 1, y, layer))
                    best = cand if best is None or cand[0] < best[0] else best
            else:
                if y > y0:
                    cost = vp[layer, i, j] - vp[layer, i, j - 1]
                    cand = (field[layer, i, j - 1] + cost, (x, y - 1, layer))
                    best = cand if best is None or cand[0] < best[0] else best
                if y < y1:
                    cost = vp[layer, i, j + 1] - vp[layer, i, j]
                    cand = (field[layer, i, j + 1] + cost, (x, y + 1, layer))
                    best = cand if best is None or cand[0] < best[0] else best
            if layer > 0:
                cost = zp[layer, i, j] - zp[layer - 1, i, j]
                cand = (field[layer - 1, i, j] + cost, (x, y, layer - 1))
                best = cand if best is None or cand[0] < best[0] else best
            if layer < tables.n_layers - 1:
                cost = zp[layer + 1, i, j] - zp[layer, i, j]
                cand = (field[layer + 1, i, j] + cost, (x, y, layer + 1))
                best = cand if best is None or cand[0] < best[0] else best
            if best is None or field[best[1][2], best[1][0] - x0, best[1][1] - y0] >= here:
                raise MazeRoutingError("wavefront descent stalled")
            cur = best[1]
            path.append(cur)
        raise MazeRoutingError("wavefront descent did not reach a source")

    # ------------------------------------------------------------------ #
    # Device metering
    # ------------------------------------------------------------------ #
    def _kernel(self, name: str, n_blocks: int, threads_per_block: int):
        """Kernel scope on instrumented backends, no-op otherwise."""
        kernel = getattr(self.xp, "kernel", None)
        if kernel is None:
            return nullcontext()
        return kernel(name, max(n_blocks, 1), max(threads_per_block, 1))


__all__ = ["StackedTables", "SweepTables", "WavefrontMazeRouter"]
