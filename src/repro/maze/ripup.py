"""Rip-up-and-reroute iterations (Sec. III-G).

After the pattern stage, only nets whose routes touch an overflowed
edge are rerouted.  Each iteration:

1. find the violating nets against current demand;
2. order them (sorting scheme of Table IV) and schedule them with the
   task graph scheduler — every net is one routing task;
3. in schedule order: rip up the net, maze-route it, commit.

:class:`RipupReroute` exposes the per-net task primitive
(:meth:`~RipupReroute.rip_and_reroute`) the scheduled-stage pipeline
executes on the calling thread; every task searches against the one
maze router's cost snapshot, refreshed inside the task's own window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.grid.cost import CostEngineStats, CostModel
from repro.grid.graph import GridGraph
from repro.grid.route import Route
from repro.maze.router import MazeRouter, MazeRoutingError, search_box
from repro.netlist.net import Net
from repro.utils.timing import Tracker

OverflowMasks = Tuple[List[np.ndarray], np.ndarray]

def overflow_masks(graph: GridGraph) -> OverflowMasks:
    """Compute the per-layer ``demand > capacity`` masks once.

    Scanning routes against these boolean masks replaces re-deriving
    the comparison for every wire of every net — the masks cost one
    pass over the grid instead of O(nets x route-length) array temporaries.
    """
    wire = [
        graph.wire_demand[layer] > graph.wire_capacity[layer]
        for layer in range(graph.n_layers)
    ]
    via = graph.via_demand > graph.via_capacity
    return wire, via


def route_touches_overflow(route: Route, masks: OverflowMasks) -> bool:
    """Return True when any edge used by ``route`` is overflowed."""
    wire_over, via_over = masks
    for wire in route.wires:
        over = wire_over[wire.layer]
        if wire.is_horizontal:
            if bool(np.any(over[wire.x1 : wire.x2, wire.y1])):
                return True
        else:
            if bool(np.any(over[wire.x1, wire.y1 : wire.y2])):
                return True
    for via in route.vias:
        if bool(np.any(via_over[via.lo : via.hi, via.x, via.y])):
            return True
    return False


def route_has_violation(route: Route, graph: GridGraph) -> bool:
    """Return True when any edge used by ``route`` is overflowed."""
    return route_touches_overflow(route, overflow_masks(graph))


def find_violating_nets(
    routes: Dict[str, Route], graph: GridGraph
) -> List[str]:
    """Return names of nets whose current route crosses an overflow.

    A route can only violate on an overflowed edge, so an overflow-free
    grid answers without walking a single route.
    """
    masks = overflow_masks(graph)
    wire_over, via_over = masks
    if not (via_over.any() or any(over.any() for over in wire_over)):
        return []
    return [
        name
        for name, route in routes.items()
        if route_touches_overflow(route, masks)
    ]


class RipupReroute:
    """Executes rip-up-and-reroute iterations over a routed design.

    ``engine`` selects the per-net search engine (any name in
    :data:`repro.maze.MAZE_ENGINES`); the wavefront engine runs its
    sweeps on ``backend`` and meters launches into ``device`` when one
    is attached.
    """

    def __init__(
        self,
        graph: GridGraph,
        netlist_by_name: Dict[str, Net],
        cost_model: Optional[CostModel] = None,
        margin: int = 6,
        engine: str = "dijkstra",
        backend: str = "numpy",
        device=None,
    ) -> None:
        from repro.maze import make_maze_router

        self.graph = graph
        self.nets = netlist_by_name
        self.cost_model = cost_model or CostModel()
        self.margin = margin
        self.engine_name = engine
        #: The maze router, hence the one cost snapshot, of every task.
        self.maze: MazeRouter = make_maze_router(
            engine,
            graph,
            self.cost_model,
            margin=margin,
            backend=backend,
            device=device,
        )
        #: Total node expansions of maze searches so far (the
        #: goal-directed search counts a node again when it re-expands
        #: it after an improvement; monotone — snapshot before/after an
        #: iteration to attribute counts per iteration).
        self.nodes_visited = 0
        #: Counters/timers bus: monotone "maze.*" counters (nets,
        #: batches, batched nets, visited, kernel launches, transfer
        #: bytes) that ``run_rrr_stage`` snapshots around an iteration
        #: to fill :class:`IterationStats`.
        self.tracker = Tracker()

    @property
    def supports_batch(self) -> bool:
        """True when the maze engine exposes a stacked ``route_batch``."""
        return getattr(self.maze, "supports_batch", False)

    def cost_engine_stats(self) -> "CostEngineStats":
        """Snapshot of the maze router's cost-engine counters.

        Monotone like :attr:`nodes_visited` — snapshot before/after an
        iteration and diff to attribute work per iteration.
        """
        return self.maze.query.stats.copy()

    def tally_launches(self, launches) -> None:
        """Fold kernel-launch/transfer records into the tracker bus."""
        if not launches:
            return
        tracker = self.tracker
        tracker.get_counter("maze.kernel_launches").increment(len(launches))
        tracker.get_counter("maze.bytes_to_device").increment(
            sum(launch.bytes_to_device for launch in launches)
        )
        tracker.get_counter("maze.bytes_to_host").increment(
            sum(launch.bytes_to_host for launch in launches)
        )

    def _fold_visited(self, visited: int) -> None:
        self.nodes_visited += visited
        self.tracker.get_counter("maze.visited").increment(visited)

    def rip_and_reroute(
        self, routes: Dict[str, Route], name: str
    ) -> Optional[Route]:
        """Rip up net ``name`` and maze-reroute it against current demand.

        Commits the new route's demand and returns it; on maze failure
        the old route (and its demand) is restored and None is returned
        — a production router counts the failure rather than crashing.
        The caller owns updating ``routes``.
        """
        net = self.nets[name]
        old_route = routes[name]
        old_route.uncommit(self.graph)
        maze = self.maze
        self.tracker.get_counter("maze.nets").increment()
        try:
            with self.tracker.get_timer("maze.search").time():
                new_route = maze.route_net(net)
        except MazeRoutingError:
            old_route.commit(self.graph)
            return None
        finally:
            self._fold_visited(maze.consume_visited())
        new_route.commit(self.graph)
        return new_route

    def rip_and_reroute_batch(
        self,
        routes: Dict[str, Route],
        names: List[str],
        cache=None,
    ) -> Dict[str, Optional[Route]]:
        """Rip up and reroute a conflict-free group as one stacked batch.

        Equivalent to calling :meth:`rip_and_reroute` (or the cached
        variant) for each name in order — bit-identical, because the
        group's search regions are pairwise disjoint: ripping all
        members first leaves each member's in-region demand exactly as
        the sequential interleaving would, cache keys hash the same
        in-region demand, and the stacked search itself is bit-identical
        per member (see :meth:`WavefrontMazeRouter.route_batch`).  On a
        per-member failure that member's old route is restored and its
        result is None.  Demand commits happen here; the caller owns
        updating ``routes``.
        """
        graph = self.graph
        old: Dict[str, Route] = {}
        for name in names:
            old[name] = routes[name]
            routes[name].uncommit(graph)

        results: Dict[str, Optional[Route]] = {}
        keys: Dict[str, object] = {}
        to_search: List[str] = []
        if cache is not None:
            from repro.session.cache import demand_signature, maze_task_key

            for name in names:
                net = self.nets[name]
                region = search_box(net, self.margin, graph)
                key = maze_task_key(
                    net, region.as_tuple(), demand_signature(graph, [region])
                )
                keys[name] = key
                hit, cached = cache.get(key)
                if hit:
                    # Commits stay inside the member's own region, so
                    # they cannot perturb the batch mates' searches.
                    if cached is None:
                        old[name].commit(graph)
                        results[name] = None
                    else:
                        cached.commit(graph)
                        results[name] = cached
                else:
                    to_search.append(name)
        else:
            to_search = list(names)

        if to_search:
            maze = self.maze
            tracker = self.tracker
            tracker.get_counter("maze.nets").increment(len(to_search))
            tracker.get_counter("maze.batches").increment()
            tracker.get_counter("maze.batched_nets").increment(len(to_search))
            try:
                with tracker.get_timer("maze.batch_search").time():
                    found = maze.route_batch([self.nets[n] for n in to_search])
            finally:
                self._fold_visited(maze.consume_visited())
            for name in to_search:
                new_route = found[name]
                if new_route is None:
                    old[name].commit(graph)
                    if cache is not None:
                        cache.put(keys[name], None)
                    results[name] = None
                else:
                    new_route.commit(graph)
                    if cache is not None:
                        cache.put(keys[name], new_route)
                    results[name] = new_route
        return results

    def rip_and_reroute_cached(
        self, routes: Dict[str, Route], name: str, cache
    ) -> Optional[Route]:
        """Content-addressed :meth:`rip_and_reroute`.

        After ripping up the old route, the net's search region demand
        is hashed; a cache hit commits the previously computed route
        (or restores the old route when the cached outcome was a
        search failure) without running the maze search — bit-identical
        either way, because the key captures every input the search
        reads (net pins, region, in-region demand; capacities and the
        cost model are session constants).
        """
        from repro.session.cache import demand_signature, maze_task_key

        net = self.nets[name]
        old_route = routes[name]
        old_route.uncommit(self.graph)
        region = search_box(net, self.margin, self.graph)
        key = maze_task_key(
            net, region.as_tuple(), demand_signature(self.graph, [region])
        )
        hit, cached = cache.get(key)
        if hit:
            if cached is None:
                old_route.commit(self.graph)
                return None
            cached.commit(self.graph)
            return cached
        maze = self.maze
        self.tracker.get_counter("maze.nets").increment()
        try:
            with self.tracker.get_timer("maze.search").time():
                new_route = maze.route_net(net)
        except MazeRoutingError:
            old_route.commit(self.graph)
            cache.put(key, None)
            return None
        finally:
            self._fold_visited(maze.consume_visited())
        new_route.commit(self.graph)
        cache.put(key, new_route)
        return new_route


__all__ = [
    "overflow_masks",
    "route_touches_overflow",
    "route_has_violation",
    "find_violating_nets",
    "RipupReroute",
]
