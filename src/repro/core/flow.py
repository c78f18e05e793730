"""The two-stage global-routing flow (Fig. 5) as scheduled stages.

Both stages are :class:`~repro.sched.pipeline.ScheduledStage` instances
executed by the same :class:`~repro.sched.pipeline.StageRunner` — the
flow holds no scheduling logic of its own:

* :class:`PatternStage` — sort nets (Internet ordering), extract
  conflict-free batches (Algorithm 1), split oversized batches into
  sibling chunks.  Each chunk is one task whose footprint is its nets'
  bounding boxes, so the task graph carries dependencies only between
  *conflicting* chunks instead of an unconditional batch chain; each
  task is one host-side kernel invocation sequence on the pattern
  engine (Fig. 7).
* :class:`RerouteStage` — per rip-up iteration, every violating net is
  one maze-reroute task whose footprint is its search region (bounding
  box + maze margin).

The runner drains both on the calling thread; a task's result is
published through ``commit_task`` before any conflicting successor
runs, so fused-group dispatch reproduces per-task dispatch bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import RouterConfig
from repro.core.result import IterationStats
from repro.core.selection import make_mode_selector
from repro.grid.geometry import Rect
from repro.grid.graph import GridGraph
from repro.grid.route import Route
from repro.gpu.device import Device
from repro.gpu.zerocopy import ZeroCopyArena
from repro.maze.ripup import RipupReroute, find_violating_nets
from repro.maze.router import search_box
from repro.netlist.design import Design
from repro.netlist.net import Net
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.cpu_reference import SequentialPatternRouter
from repro.sched.batching import bucket_by_area, extract_batches
from repro.sched.pipeline import ScheduledStage, StageReport, StageRunner
from repro.sched.sorting import sort_nets
from repro.utils.timing import Tracker

def make_pattern_engine(
    graph: GridGraph,
    config: RouterConfig,
    device: Device,
    arena: ZeroCopyArena,
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
        arena=arena,
        edge_shift=config.edge_shift,
        max_chunk_elements=config.max_chunk_elements,
        backend=config.backend,
        cost_engine=config.cost_engine,
    )


class PatternStage(ScheduledStage):
    """Pattern routing as chunk tasks over a shared pattern engine."""

    name = "pattern"

    def __init__(
        self,
        design: Design,
        config: RouterConfig,
        device: Device,
        arena: ZeroCopyArena,
        context=None,
    ) -> None:
        graph = design.graph
        self.nets = sort_nets(list(design.netlist), config.sorting_scheme)
        boxes = [net.bbox for net in self.nets]
        batches = extract_batches(boxes, graph.nx, graph.ny)
        # Greedy maximal batches pairwise conflict by construction — as
        # whole tasks they could only chain.  Capping each batch into
        # sibling chunks (conflict-free among themselves) gives the
        # task graph real width to exploit.
        cap = config.max_batch_tasks
        self.chunks: List[List[int]] = []
        for batch in batches:
            for lo in range(0, len(batch), cap):
                self.chunks.append(batch[lo : lo + cap])
        self._boxes = [[boxes[i] for i in chunk] for chunk in self.chunks]
        self.mode_fn = make_mode_selector(config, graph)

        self.engine = make_pattern_engine(graph, config, device, arena)
        # Session context (optional): route/Steiner caches a warm
        # session lends this stage.
        self._context = context
        if context is not None:
            self.engine.steiner_cache = context.steiner_cache
        # Stage-start cost snapshot (zero demand): every chunk's masked
        # rebuild pins out-of-footprint costs to these arrays, so its DP
        # is bit-independent of whatever non-conflicting chunks did.
        # Must be a deep copy — the incremental engine refreshes its
        # cost arrays in place, so aliasing them would let later
        # batches corrupt the pinned reference.
        self.cost_reference = self.engine.query.snapshot_reference()
        self.routes: Dict[str, Route] = {}
        self._graph = graph
        self.config = config
        #: Counters bus: monotone "pattern.*" counters (fused batches,
        #: nets routed through them, kernel launches) that
        #: ``run_pattern_stage`` folds into the run report.
        self.tracker = Tracker()

    def task_boxes(self) -> Sequence[Sequence[Rect]]:
        return self._boxes

    def task_label(self, task: int) -> str:
        return f"chunk-{task}"

    def prepare(self) -> None:
        self.routes = {}

    def run_task(self, task: int) -> Dict[str, Route]:
        chunk_nets = [self.nets[i] for i in self.chunks[task]]
        return self._route_nets(chunk_nets, self._boxes[task])

    def _route_nets(
        self,
        nets: List[Net],
        boxes: Sequence[Rect],
        batched: bool = False,
    ) -> Dict[str, Route]:
        """Route ``nets`` (disjoint ``boxes``) on the shared engine.

        Without a session context this is one masked ``route_batch``;
        with one it is the content-addressed replay, *per net*:
        group-mates have disjoint boxes and a cost snapshot frozen at
        stage start, so one net's DP output is a pure function of
        (net, box, demand in the box's incident-edge footprint) —
        independent of which chunk the batch extractor placed it in
        and of how many chunks a
        fused level stacked together.  Keys are computed before any
        commit (the group-start demand a cold run would see); cached
        hits commit O(route), the rest route as a sub-batch masked to
        their own boxes.  Hit commits can't perturb the misses: a
        hit's route writes edges with both endpoints inside its own
        box, which a disjoint miss box's incident-edge window never
        contains.
        """
        tracker = self.tracker
        n_launches_before = len(self.engine.device.launches)
        try:
            if self._context is None:
                if batched:
                    tracker.get_counter("pattern.batches").increment()
                    tracker.get_counter("pattern.batched_nets").increment(
                        len(nets)
                    )
                return self.engine.route_batch(
                    nets,
                    self.mode_fn,
                    cost_boxes=list(boxes),
                    cost_reference=self.cost_reference,
                )
            from repro.session.cache import demand_signature, pattern_net_key

            cache = self._context.cache
            keys = [
                pattern_net_key(net, box, demand_signature(self._graph, [box]))
                for net, box in zip(nets, boxes)
            ]
            hits: List[Tuple[str, Route]] = []
            missing: List[int] = []
            for i, key in enumerate(keys):
                found, route = cache.get(key)
                if found:
                    hits.append((nets[i].name, route))
                else:
                    missing.append(i)
            routes: Dict[str, Route] = {}
            for name, route in hits:
                route.commit(self._graph)
                routes[name] = route
            if missing:
                if batched:
                    tracker.get_counter("pattern.batches").increment()
                    tracker.get_counter("pattern.batched_nets").increment(
                        len(missing)
                    )
                fresh = self.engine.route_batch(
                    [nets[i] for i in missing],
                    self.mode_fn,
                    cost_boxes=[boxes[i] for i in missing],
                    cost_reference=self.cost_reference,
                )
                routes.update(fresh)
                for i in missing:
                    cache.put(keys[i], fresh[nets[i].name])
            return routes
        finally:
            tracker.get_counter("pattern.kernel_launches").increment(
                len(self.engine.device.launches) - n_launches_before
            )

    def commit_task(self, task: int, result: Dict[str, Route]) -> None:
        self.routes.update(result)

    # ------------------------------------------------------------------ #
    # Batched dispatch (stacked cross-net pattern kernels)
    # ------------------------------------------------------------------ #
    def batch_plan(self, schedule) -> Optional[List[List[int]]]:
        """Dispatch the task graph's dependency levels as fused launches.

        Levels are conflict-free and their order is a linear extension
        of the DAG, so fusing a whole level into one ``route_batch``
        (one masked rebuild over the union of boxes, waves merged
        across every member net) and committing member results in
        group order reproduces per-chunk dispatch bit for bit — each
        member's DP reads only costs inside its own box, which no
        disjoint level-mate's commit can touch.  Levels are split into
        size buckets by largest-net bounding-box area first so one
        oversized chunk cannot dominate every stacked wave it shares.
        """
        if not self.config.pattern_batching:
            return None
        areas = [
            max((box.area for box in boxes), default=0)
            for boxes in self._boxes
        ]
        plan: List[List[int]] = []
        for level in schedule.task_graph.levels():
            plan.extend(bucket_by_area(level, areas))
        return plan

    def run_batch(self, tasks: Sequence[int]) -> Dict[int, Dict[str, Route]]:
        member_names: List[Tuple[int, List[str]]] = []
        all_nets: List[Net] = []
        all_boxes: List[Rect] = []
        for task in tasks:
            chunk_nets = [self.nets[i] for i in self.chunks[task]]
            member_names.append((task, [net.name for net in chunk_nets]))
            all_nets.extend(chunk_nets)
            all_boxes.extend(self._boxes[task])
        routes = self._route_nets(all_nets, all_boxes, batched=True)
        return {
            task: {name: routes[name] for name in names}
            for task, names in member_names
        }


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
        batching: bool = False,
    ) -> None:
        self.engine = engine
        self.routes = routes
        self.ordered_nets = ordered_nets
        self._cache = cache
        self._batching = batching
        graph = engine.graph
        # The footprint is the maze *search region*, not just the
        # bounding box: everything the task reads or writes lives there.
        self._boxes = [[search_box(net, margin, graph)] for net in ordered_nets]
        self.n_failed = 0

    def task_boxes(self) -> Sequence[Sequence[Rect]]:
        return self._boxes

    def task_label(self, task: int) -> str:
        return self.ordered_nets[task].name

    def prepare(self) -> None:
        self.n_failed = 0

    def run_task(self, task: int) -> Optional[Route]:
        name = self.ordered_nets[task].name
        if self._cache is not None:
            return self.engine.rip_and_reroute_cached(
                self.routes, name, self._cache
            )
        return self.engine.rip_and_reroute(self.routes, name)

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

        Only when batching is enabled and the maze engine supports it.
        Levels are conflict-free and their order is a linear extension
        of the DAG, so the runner's group execution commits conflicting
        nets in exactly the per-task order — bit-identical
        results (the stacked search itself is per-member bit-identical).
        Each level is split into size buckets by search-region area
        first: the stacked fixpoint runs until its slowest member
        freezes, so one oversized region would otherwise stretch every
        small mate's pass count (and pad every slab to its size).
        """
        if not (self._batching and self.engine.supports_batch):
            return None
        areas = [boxes[0].area for boxes in self._boxes]
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


def _cached_schedule(runner: StageRunner, stage: ScheduledStage, context):
    """Schedule ``stage``, reusing the context's cached schedule.

    A :class:`StageSchedule` is a pure function of the task footprints
    and the runner's bin size, and running it never mutates it, so a
    schedule is safely replayed and shared.
    """
    if context is None:
        return runner.schedule(stage)
    key = (
        stage.name,
        runner.bin_size,
        tuple(
            tuple(box.as_tuple() for box in boxes)
            for boxes in stage.task_boxes()
        ),
    )
    schedule = context.schedule_cache.get(key)
    if schedule is None:
        schedule = runner.schedule(stage)
        context.schedule_cache[key] = schedule
    return schedule


def run_pattern_stage(
    design: Design,
    config: RouterConfig,
    device: Device,
    arena: ZeroCopyArena,
    cost_stats: Optional[Dict[str, float]] = None,
    context=None,
    stage_stats: Optional[Dict[str, float]] = None,
) -> Tuple[Dict[str, Route], StageReport]:
    """Route every net with pattern routing.

    Returns the committed routes (keyed in netlist order) and the
    pipeline's execution report.  With ``cost_stats`` (a dict the
    caller owns), the stage's cost-engine counters are written into it.
    With ``stage_stats``, the stage's ``pattern.*`` tracker counters
    (fused batches, batched nets, kernel launches) are written into it.
    With a session ``context``, task results, Steiner trees, and
    schedules are served from (and fill) its warm caches.
    """
    stage = PatternStage(design, config, device, arena, context=context)
    runner = StageRunner(n_workers=config.n_workers)
    report = runner.run(stage, schedule=_cached_schedule(runner, stage, context))
    if cost_stats is not None:
        cost_stats.update(stage.engine.query.stats.as_dict())
    if stage_stats is not None:
        counters = stage.tracker.counters()
        stage_stats.update(
            {
                "batches": float(counters.get("pattern.batches", 0)),
                "batched_nets": float(
                    counters.get("pattern.batched_nets", 0)
                ),
                "kernel_launches": float(
                    counters.get("pattern.kernel_launches", 0)
                ),
            }
        )
    # Commit order is the task graph's topological order, not netlist
    # order; re-key so the mapping follows the netlist.
    routes = {net.name: stage.routes[net.name] for net in design.netlist}
    return routes, report


def run_rrr_stage(
    design: Design,
    config: RouterConfig,
    routes: Dict[str, Route],
    device: Optional[Device] = None,
    cost_stats: Optional[Dict[str, float]] = None,
    context=None,
    on_iteration=None,
) -> Tuple[int, List[IterationStats]]:
    """Run the rip-up-and-reroute iterations in place.

    Returns the number of violating nets found after the pattern stage
    (0 when the pattern stage already closed routing — no iteration
    entry is fabricated in that case) and the per-iteration statistics.
    With a ``device``, the wavefront engine's sweep launches are
    metered into it alongside the pattern kernels.  With ``cost_stats``
    (a dict the caller owns), the stage's aggregated cost-engine
    counters are written into it.  With a session ``context``, maze
    re-routes and conflict schedules are served from its warm caches;
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
        cost_engine=config.cost_engine,
    )
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
        # violate; reuse them across iterations with an identical set
        # (and across runs through the session's schedule cache).
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
            batching=config.maze_batching,
        )
        if schedule is None:
            schedule = _cached_schedule(runner, stage, context)
        visited_before = engine.nodes_visited
        cost_before = engine.cost_engine_stats()
        tracker_before = engine.tracker.snapshot()
        n_launches_before = len(device.launches) if device is not None else 0
        report = runner.run(stage, schedule=schedule)
        cost_delta = engine.cost_engine_stats().delta(cost_before)
        # Fold this iteration's kernel-launch records (with their
        # attributed transfer bytes) into the tracker bus, then
        # slice the monotone totals into per-iteration figures.
        if device is not None:
            engine.tally_launches(device.launches[n_launches_before:])
        counter_delta, _ = engine.tracker.delta(tracker_before)
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
                nodes_visited=engine.nodes_visited - visited_before,
                cost_rebuilds=cost_delta.rebuilds,
                cost_refreshed_edges=cost_delta.refreshed_edges,
                cost_time=cost_delta.seconds,
                maze_batches=counter_delta.get("maze.batches", 0),
                batched_nets=counter_delta.get("maze.batched_nets", 0),
                kernel_launches=counter_delta.get(
                    "maze.kernel_launches", 0
                ),
                bytes_to_device=counter_delta.get("maze.bytes_to_device", 0),
                bytes_to_host=counter_delta.get("maze.bytes_to_host", 0),
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
    if cost_stats is not None:
        cost_stats.update(engine.cost_engine_stats().as_dict())
    return (initial_to_rip or 0, iterations)


__all__ = [
    "PatternStage",
    "RerouteStage",
    "make_pattern_engine",
    "run_pattern_stage",
    "run_rrr_stage",
]
