"""The two-stage global-routing flow (Fig. 5) as scheduled stages.

Both stages are :class:`~repro.sched.pipeline.ScheduledStage` instances
executed by the same :class:`~repro.sched.pipeline.StageRunner` — the
flow holds no scheduling logic of its own:

* :class:`PatternStage` — sort nets (Internet ordering); the runner
  extracts conflict-free batches of their bounding boxes (Algorithm 1)
  and the stage cuts each batch in sort order into pieces of at most
  :data:`PIECE_NETS` nets and groups a batch's pieces by box area.
  Each group is one task — one masked ``route_batch`` call on the
  pattern engine (Fig. 7).  The task graph's dependency levels are
  exactly the Algorithm-1 batches, and its topological order is the
  task order.
* :class:`RerouteStage` — per rip-up iteration, every violating net is
  one maze-reroute task whose conflict box is its search region
  (bounding box + maze margin).

The runner drains both on the calling thread; a task's result is
published through ``commit_task`` before any conflicting successor
runs.  Only the wavefront maze engine fuses a dependency level of
reroute tasks into one stacked search, which reproduces per-task
dispatch bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import metrics
from repro.core.config import RouterConfig
from repro.core.result import IterationStats
from repro.core.selection import make_mode_selector
from repro.grid.geometry import Rect
from repro.grid.graph import GridGraph
from repro.grid.route import Route, commit_routes
from repro.gpu.device import Device
from repro.maze.ripup import RipupReroute, find_violating_nets
from repro.maze.router import search_box
from repro.netlist.design import Design
from repro.netlist.net import Net
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.cpu_reference import SequentialPatternRouter
from repro.pattern.plan import net_cells
from repro.sched.batching import bucket_by_area
from repro.sched.pipeline import ScheduledStage, StageReport, StageRunner
from repro.sched.sorting import sort_nets, sort_order
from repro.session.replay import ReplayPass
from repro.utils.timing import Tracker

def make_pattern_engine(
    graph: GridGraph,
    config: RouterConfig,
    device: Device,
    tracker: Optional[Tracker] = None,
):
    """Build the config's pattern engine over ``graph``."""
    engine_cls = (
        BatchPatternRouter
        if config.pattern_engine == "batch"
        else SequentialPatternRouter
    )
    return engine_cls(
        graph,
        config.cost_model,
        device=device,
        tracker=tracker,
        edge_shift=config.edge_shift,
        backend=config.backend,
    )


#: Nets per piece of an Algorithm-1 batch; a pattern task groups pieces
#: of one batch whose largest boxes are of comparable area.
PIECE_NETS = 64


class PatternStage(ScheduledStage):
    """Pattern routing as conflict-free net groups on a shared engine.

    Each task is one ``route_batch`` call; the stage has no fused group
    path of its own.  (``benchmarks/e2e/trace.py`` still pins a span on
    ``PatternStage.run_batch``: ``inspect.getattr_static`` resolves it
    through the MRO to :meth:`ScheduledStage.run_batch`, which never
    runs here.)
    """

    name = "pattern"

    def __init__(
        self,
        design: Design,
        config: RouterConfig,
        device: Device,
        tracker: Optional[Tracker] = None,
        context=None,
    ) -> None:
        graph = design.graph
        netlist = design.netlist
        order = sort_order(netlist, config.sorting_scheme)
        self.nets = [netlist[i] for i in order]
        # Pin cells and closed-form trees of every net, from the pin
        # table the design's validation built.
        self.net_cells = net_cells(*netlist.pin_table(), graph.n_layers).take(order)
        self._net_boxes = [net.bbox for net in self.nets]
        #: Each task's stage positions, cut by :meth:`group`.
        self.tasks: List[List[int]] = []
        self.mode_fn = make_mode_selector(config, graph)

        self.engine = make_pattern_engine(graph, config, device, tracker)
        # Session context (optional): the Steiner cache and the
        # structural replay state a warm session lends this stage.
        self.replay: Optional[ReplayPass] = None
        if context is not None:
            self.engine.steiner_cache = context.steiner_cache
            self.replay = ReplayPass(context.replay, self.nets, graph)
        self.routes: Dict[str, Route] = {}
        self._graph = graph

    def boxes(self) -> Sequence[Rect]:
        return self._net_boxes

    def group(self, batches: List[List[int]]) -> List[List[int]]:
        """Cut each Algorithm-1 batch, in sort order, into pieces of at
        most :data:`PIECE_NETS` nets and group the pieces by their
        largest box, so one oversized net cannot stretch every stacked
        wave it shares.  A group is one task: one ``route_batch`` call."""
        boxes = self._net_boxes
        self.tasks = []
        for batch in batches:
            pieces = [
                batch[lo : lo + PIECE_NETS]
                for lo in range(0, len(batch), PIECE_NETS)
            ]
            areas = [max(boxes[p].area for p in piece) for piece in pieces]
            for group in bucket_by_area(range(len(pieces)), areas):
                self.tasks.append([p for piece in group for p in pieces[piece]])
        return self.tasks

    def prepare(self) -> None:
        self.routes = {}

    def run_task(self, task: int) -> Dict[str, Route]:
        return self._route_nets(self.tasks[task])

    def _route_nets(self, positions: List[int]) -> Dict[str, Route]:
        """Route the nets at stage ``positions`` (disjoint boxes) on the
        shared engine.

        Without a session context this is one masked ``route_batch``.
        With one it is the structural replay (:mod:`repro.session.replay`):
        the clean nets commit their last routes together, one demand
        write per layer, and only the rest route as a sub-batch masked
        to their own boxes.  The clean commits cannot perturb that
        sub-batch: a clean route writes edges with both endpoints inside
        its own box, which a disjoint box's incident-edge window never
        contains.
        """
        tracker = self.engine.tracker
        n_launches_before = len(self.engine.device.launches)
        replay = self.replay
        try:
            if replay is None:
                return self._route_fresh(positions)
            kept, redo = replay.split(positions)
            commit_routes(self._graph, [route for _, route in kept])
            routes: Dict[str, Route] = {}
            for p, route in kept:
                routes[self.nets[p].name] = route
                replay.record(p, route, recomputed=False)
            if redo:
                fresh = self._route_fresh(redo)
                for p in redo:
                    route = routes[self.nets[p].name] = fresh[self.nets[p].name]
                    replay.record(p, route, recomputed=True)
            return routes
        finally:
            tracker.get_counter(metrics.PATTERN_KERNEL_LAUNCHES).increment(
                len(self.engine.device.launches) - n_launches_before
            )

    def _route_fresh(self, positions: List[int]) -> Dict[str, Route]:
        """One masked ``route_batch`` over the nets at ``positions``."""
        tracker = self.engine.tracker
        tracker.get_counter(metrics.PATTERN_BATCHES).increment()
        tracker.get_counter(metrics.PATTERN_BATCHED_NETS).increment(len(positions))
        return self.engine.route_batch(
            [self.nets[p] for p in positions],
            self.mode_fn,
            cost_boxes=[self._net_boxes[p] for p in positions],
            cells=self.net_cells.take(positions),
        )

    def commit_task(self, task: int, result: Dict[str, Route]) -> None:
        self.routes.update(result)


class RerouteStage(ScheduledStage):
    """One rip-up iteration: every violating net is a maze task."""

    name = "maze"

    def __init__(
        self,
        engine: RipupReroute,
        routes: Dict[str, Route],
        ordered_nets: List[Net],
        margin: int,
        cache=None,
    ) -> None:
        self.engine = engine
        self.routes = routes
        self.ordered_nets = ordered_nets
        self._cache = cache
        graph = engine.graph
        # The conflict box is the maze *search region*, not just the
        # bounding box: everything the task reads or writes lives there.
        self._boxes = [search_box(net, margin, graph) for net in ordered_nets]
        self.n_failed = 0

    def boxes(self) -> Sequence[Rect]:
        return self._boxes

    def prepare(self) -> None:
        self.n_failed = 0

    def run_task(self, task: int) -> Optional[Route]:
        return self.engine.rip_and_reroute(
            self.routes, self.ordered_nets[task].name, self._cache
        )

    def commit_task(self, task: int, result: Optional[Route]) -> None:
        if result is None:
            self.n_failed += 1
        else:
            self.routes[self.ordered_nets[task].name] = result

    # ------------------------------------------------------------------ #
    # Batched dispatch (stacked multi-net relaxation)
    # ------------------------------------------------------------------ #
    def batch_plan(self, schedule) -> Optional[List[List[int]]]:
        """Dispatch the task graph's dependency levels as stacked batches.

        Only when the maze engine can stack searches (the wavefront
        engine); the Dijkstra engine runs one task at a time.
        Levels are conflict-free and their order is a linear extension
        of the DAG, so the runner's group execution commits conflicting
        nets in exactly the per-task order — bit-identical
        results (the stacked search itself is per-member bit-identical).
        Each level is split into size buckets by search-region area
        first: the stacked fixpoint runs until its slowest member
        freezes, so one oversized region would otherwise stretch every
        small mate's pass count (and pad every slab to its size).
        """
        if not self.engine.supports_batch:
            return None
        areas = [box.area for box in self._boxes]
        plan: List[List[int]] = []
        for level in schedule.task_graph.levels():
            plan.extend(bucket_by_area(level, areas))
        return plan

    def run_batch(self, tasks: Sequence[int]) -> Dict[int, Optional[Route]]:
        names = [self.ordered_nets[task].name for task in tasks]
        found = self.engine.rip_and_reroute_batch(
            self.routes, names, cache=self._cache
        )
        return {task: found[name] for task, name in zip(tasks, names)}


def run_pattern_stage(
    design: Design,
    config: RouterConfig,
    device: Device,
    tracker: Optional[Tracker] = None,
    context=None,
) -> Tuple[Dict[str, Route], StageReport]:
    """Route every net with pattern routing.

    Returns the committed routes (keyed in netlist order) and the
    pipeline's execution report; the stage counts into ``tracker``.
    With a session ``context``, clean nets replay their last routes
    (:mod:`repro.session.replay`; the context's replay state is replaced
    by this run's), and Steiner trees are served from (and fill) its
    warm cache.
    """
    stage = PatternStage(design, config, device, tracker, context=context)
    runner = StageRunner(n_workers=config.n_workers)
    schedule = runner.schedule(stage)
    if stage.replay is not None:
        # Overlapping nets sit in conflicting tasks, which commit in
        # task order (DESIGN.md Sec. 2): a net's task is its commit rank.
        stage.replay.orient(schedule.pairs, schedule.task_of)
    report = runner.run(stage, schedule=schedule)
    if stage.replay is not None:
        context.replay = stage.replay.finish()
    # Commit order is the task graph's topological order, not netlist
    # order; re-key so the mapping follows the netlist.
    routes = {net.name: stage.routes[net.name] for net in design.netlist}
    return routes, report


def run_rrr_stage(
    design: Design,
    config: RouterConfig,
    routes: Dict[str, Route],
    device: Optional[Device] = None,
    context=None,
    on_iteration=None,
    tracker: Optional[Tracker] = None,
) -> Tuple[int, List[IterationStats]]:
    """Run the rip-up-and-reroute iterations in place.

    Returns the number of violating nets found after the pattern stage
    (0 when the pattern stage already closed routing — no iteration
    entry is fabricated in that case) and the per-iteration statistics.
    With a ``device``, the wavefront engine's sweep launches are
    metered into it alongside the pattern kernels.  The run's
    ``tracker`` is sliced per iteration into the statistics.  With a session
    ``context``, maze re-routes are served from its route cache;
    ``on_iteration`` (if given) is called with each
    :class:`IterationStats` as it completes — the progress hook the job
    service streams to clients.
    """
    graph = design.graph
    nets_by_name = {net.name: net for net in design.netlist}
    engine = RipupReroute(
        graph,
        nets_by_name,
        config.cost_model,
        margin=config.maze_margin,
        engine=config.maze_engine,
        backend=config.backend,
        device=device,
        tracker=tracker,
    )
    tracker = engine.tracker
    runner = StageRunner(n_workers=config.n_workers)
    rrr_scheme = config.rrr_sorting_scheme or config.sorting_scheme
    cache = context.cache if context is not None else None
    # Adaptive cache bypass: hashing a maze task's demand window costs
    # real time, and on congestion-dominated designs the windows churn
    # too fast for hits.  The cache only affects *speed* — hits and
    # misses produce bit-identical routes — so dropping it when the
    # observed hit rate stays low is free of correctness risk.
    lookups_at_entry = (cache.hits + cache.misses) if cache is not None else 0
    hits_at_entry = cache.hits if cache is not None else 0
    _BYPASS_MIN_LOOKUPS = 64
    _BYPASS_HIT_RATE = 0.25

    initial_to_rip: Optional[int] = None
    iterations: List[IterationStats] = []
    cached_key: Optional[Tuple[str, ...]] = None
    ordered_nets: List[Net] = []
    schedule = None
    for iteration in range(config.n_rrr_iterations):
        violating = find_violating_nets(routes, graph)
        if initial_to_rip is None:
            initial_to_rip = len(violating)
        if not violating:
            break

        # Sorting and conflict analysis depend only on *which* nets
        # violate; reuse them across iterations with an identical set.
        key = tuple(sorted(violating))
        if key != cached_key:
            ordered_nets = sort_nets(
                [nets_by_name[name] for name in violating], rrr_scheme
            )
            schedule = None
            cached_key = key

        stage = RerouteStage(
            engine,
            routes,
            ordered_nets,
            config.maze_margin,
            cache=cache,
        )
        if schedule is None:
            schedule = runner.schedule(stage)
        tracker_before = tracker.snapshot()
        n_launches_before = len(device.launches) if device is not None else 0
        report = runner.run(stage, schedule=schedule)
        # Fold this iteration's kernel-launch records (with their
        # attributed transfer bytes) into the tracker bus, then
        # slice the monotone totals into per-iteration figures.
        if device is not None:
            engine.tally_launches(device.launches[n_launches_before:])
        counter_delta, _ = tracker.delta(tracker_before)
        iterations.append(
            IterationStats(
                iteration=iteration,
                n_ripped=report.n_tasks,
                n_failed=stage.n_failed,
                sequential_time=report.sequential_time,
                taskgraph_makespan=report.taskgraph_makespan,
                batch_makespan=report.batch_makespan,
                makespan=report.makespan(config.rrr_parallel),
                engine=engine.engine_name,
                nodes_visited=counter_delta.get(metrics.MAZE_NODES_VISITED, 0),
                maze_batches=counter_delta.get(metrics.MAZE_BATCHES, 0),
                batched_nets=counter_delta.get(metrics.MAZE_BATCHED_NETS, 0),
                kernel_launches=counter_delta.get(metrics.MAZE_KERNEL_LAUNCHES, 0),
                bytes_to_device=counter_delta.get(metrics.MAZE_BYTES_TO_DEVICE, 0),
                bytes_to_host=counter_delta.get(metrics.MAZE_BYTES_TO_HOST, 0),
                report=report,
            )
        )
        if on_iteration is not None:
            on_iteration(iterations[-1])
        if cache is not None:
            lookups = (cache.hits + cache.misses) - lookups_at_entry
            if lookups >= _BYPASS_MIN_LOOKUPS:
                rate = (cache.hits - hits_at_entry) / lookups
                if rate < _BYPASS_HIT_RATE:
                    cache = None
    return (initial_to_rip or 0, iterations)


__all__ = [
    "PatternStage",
    "RerouteStage",
    "make_pattern_engine",
    "run_pattern_stage",
    "run_rrr_stage",
]
