"""Rip-up-and-reroute iterations (Sec. III-G).

After the pattern stage, only nets whose routes touch an overflowed
edge are rerouted.  Each iteration:

1. find the violating nets against current demand;
2. order them (sorting scheme of Table IV) and schedule them with the
   task graph scheduler — every net is one routing task;
3. in schedule order: rip up the net, maze-route it, commit.

:class:`RipupReroute` exposes the per-net task primitive
(:meth:`~RipupReroute.rip_and_reroute`) the scheduled-stage pipeline
executes on the calling thread, and its stacked twin for a
conflict-free group (:meth:`~RipupReroute.rip_and_reroute_batch`);
both run one body, with or without a session's route cache.  Every
task's search prices its own window from the demand the tasks before
it left.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

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
        self, routes: Dict[str, Route], name: str, cache=None
    ) -> Optional[Route]:
        """Rip up net ``name`` and maze-reroute it against current demand.

        Commits the new route's demand and returns it; on maze failure
        the old route (and its demand) is restored and None is returned
        — a production router counts the failure rather than crashing.
        With a session ``cache`` the search is content-addressed (see
        :meth:`_reroute`).  The caller owns updating ``routes``.
        """
        return self._reroute(routes, [name], cache, self._search_each)[name]

    # Pinned by the span table of ``benchmarks/e2e/trace.py`` (as
    # ``reconstruct_route`` is in ``pattern/batch.py``); nothing calls it.
    rip_and_reroute_cached = rip_and_reroute

    def rip_and_reroute_batch(
        self,
        routes: Dict[str, Route],
        names: List[str],
        cache=None,
    ) -> Dict[str, Optional[Route]]:
        """Rip up and reroute a conflict-free group as one stacked batch.

        Equivalent to calling :meth:`rip_and_reroute` for each name in
        order — bit-identical, because the group's search regions are
        pairwise disjoint: ripping all members first leaves each
        member's in-region demand exactly as the sequential interleaving
        would, cache keys hash the same in-region demand, and the
        stacked search itself is bit-identical per member (see
        :meth:`WavefrontMazeRouter.route_batch`).
        """
        return self._reroute(routes, names, cache, self._search_stacked)

    def _reroute(
        self,
        routes: Dict[str, Route],
        names: List[str],
        cache,
        search: Callable[[List[Net]], Dict[str, Optional[Route]]],
    ) -> Dict[str, Optional[Route]]:
        """The one rip-up body: rip up every name, serve cache hits,
        ``search`` the rest, store the misses, then commit each new
        route — or restore the old one where the search failed (None).

        A cache key captures every input the search reads (net pins,
        search region, in-region demand; capacities and the cost model
        are session constants), so a hit is bit-identical to a search.
        The names' search regions are pairwise disjoint, so no member's
        commit can reach another member's key or search.
        """
        graph = self.graph
        for name in names:
            routes[name].uncommit(graph)
        found: Dict[str, Optional[Route]] = {}
        keys: Dict[str, str] = {}
        if cache is not None:
            from repro.session.cache import demand_signature, maze_task_key

            for name in names:
                net = self.nets[name]
                region = search_box(net, self.margin, graph)
                keys[name] = key = maze_task_key(
                    net, region.as_tuple(), demand_signature(graph, [region])
                )
                hit, cached = cache.get(key)
                if hit:
                    found[name] = cached
        misses = [self.nets[name] for name in names if name not in found]
        if misses:
            try:
                found.update(search(misses))
            finally:
                self._count_visited()
            if cache is not None:
                for net in misses:
                    cache.put(keys[net.name], found[net.name])
        for name in names:
            route = found[name]
            (routes[name] if route is None else route).commit(graph)
        return found

    def _search_each(self, nets: List[Net]) -> Dict[str, Optional[Route]]:
        """Per-net search; a net the maze cannot route maps to None."""
        found: Dict[str, Optional[Route]] = {}
        for net in nets:
            try:
                found[net.name] = self.maze.route_net(net)
            except MazeRoutingError:
                found[net.name] = None
        return found

    def _search_stacked(self, nets: List[Net]) -> Dict[str, Optional[Route]]:
        """One stacked search over the wavefront engine."""
        tracker = self.tracker
        tracker.get_counter(metrics.MAZE_BATCHES).increment()
        tracker.get_counter(metrics.MAZE_BATCHED_NETS).increment(len(nets))
        return self.maze.route_batch(nets)


__all__ = [
    "route_has_violation",
    "find_violating_nets",
    "RipupReroute",
]
