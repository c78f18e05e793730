"""Rip-up-and-reroute iterations (Sec. III-G).

After the pattern stage, only nets whose routes touch an overflowed
edge are rerouted.  Each iteration:

1. find the violating nets against current demand;
2. order them (sorting scheme of Table IV) and schedule them with the
   task graph scheduler — every net is one routing task;
3. in schedule order: rip up the net, maze-route it, commit.

:class:`RipupReroute` exposes the per-net task primitive
(:meth:`~RipupReroute.rip_and_reroute`) the scheduled-stage pipeline
executes on the calling thread; every task's search prices its own
window from the demand the tasks before it left.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import metrics
from repro.grid.cost import CostModel
from repro.grid.graph import GridGraph
from repro.grid.route import Route
from repro.maze.router import MazeRouter, MazeRoutingError, search_box
from repro.netlist.net import Net
from repro.utils.timing import Tracker


def route_has_violation(route: Route, graph: GridGraph) -> bool:
    """Return True when any edge used by ``route`` is overflowed."""
    cells = route._demand_index(graph)
    return bool((graph.demand_flat[cells] > graph.capacity_flat[cells]).any())


def find_violating_nets(
    routes: Dict[str, Route], graph: GridGraph
) -> List[str]:
    """Return names of nets whose current route crosses an overflow.

    One overflow mask over the flat demand buffer, then one lookup per
    route at its cached demand index.  A route can only violate on an
    overflowed edge, so an overflow-free grid answers without looking
    at a single route.
    """
    over = graph.demand_flat > graph.capacity_flat
    if not over.any():
        return []
    return [
        name for name, route in routes.items() if over[route._demand_index(graph)].any()
    ]


class RipupReroute:
    """Executes rip-up-and-reroute iterations over a routed design.

    ``engine`` selects the per-net search engine (any name in
    :data:`repro.maze.MAZE_ENGINES`); the wavefront engine runs its
    sweeps on ``backend`` and meters launches into ``device`` when one
    is attached.  It counts into ``tracker`` (a private one when None).
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
        tracker: Optional[Tracker] = None,
    ) -> None:
        from repro.maze import make_maze_router

        self.graph = graph
        self.nets = netlist_by_name
        self.cost_model = cost_model or CostModel()
        self.margin = margin
        self.engine_name = engine
        #: The maze router of every task.
        self.maze: MazeRouter = make_maze_router(
            engine,
            graph,
            self.cost_model,
            margin=margin,
            backend=backend,
            device=device,
        )
        #: Monotone ``maze.*`` counters that ``run_rrr_stage`` slices
        #: per iteration.  Node expansions count a node again when the
        #: goal-directed search re-expands it after an improvement.
        self.tracker = tracker if tracker is not None else Tracker()

    @property
    def supports_batch(self) -> bool:
        """True when the maze engine exposes a stacked ``route_batch``."""
        return getattr(self.maze, "supports_batch", False)

    def tally_launches(self, launches) -> None:
        """Fold kernel-launch/transfer records into the tracker bus."""
        if not launches:
            return
        tracker = self.tracker
        tracker.get_counter(metrics.MAZE_KERNEL_LAUNCHES).increment(len(launches))
        tracker.get_counter(metrics.MAZE_BYTES_TO_DEVICE).increment(
            sum(launch.bytes_to_device for launch in launches)
        )
        tracker.get_counter(metrics.MAZE_BYTES_TO_HOST).increment(
            sum(launch.bytes_to_host for launch in launches)
        )

    def _count_visited(self) -> None:
        self.tracker.get_counter(metrics.MAZE_NODES_VISITED).increment(
            self.maze.consume_visited()
        )

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
        try:
            new_route = self.maze.route_net(net)
        except MazeRoutingError:
            old_route.commit(self.graph)
            return None
        finally:
            self._count_visited()
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
            tracker = self.tracker
            tracker.get_counter(metrics.MAZE_BATCHES).increment()
            tracker.get_counter(metrics.MAZE_BATCHED_NETS).increment(len(to_search))
            try:
                found = self.maze.route_batch([self.nets[n] for n in to_search])
            finally:
                self._count_visited()
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
        try:
            new_route = self.maze.route_net(net)
        except MazeRoutingError:
            old_route.commit(self.graph)
            cache.put(key, None)
            return None
        finally:
            self._count_visited()
        new_route.commit(self.graph)
        cache.put(key, new_route)
        return new_route


__all__ = [
    "route_has_violation",
    "find_violating_nets",
    "RipupReroute",
]
