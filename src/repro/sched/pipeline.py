"""The scheduled-stage pipeline: one scheduler for both routing stages.

The paper applies the heterogeneous task-graph scheduler to *both*
stages of the flow (Fig. 5): pattern-routing batches and maze-reroute
nets are just tasks with a spatial conflict relation.  This module is
the single place that turns a stage into scheduled execution:

1. a :class:`ScheduledStage` describes the tasks — each task owns a set
   of bounding boxes (its conflict footprint), a ``run_task`` body and a
   ``commit_task`` that publishes the result;
2. :meth:`StageRunner.schedule` builds the conflict graph over those
   footprints, the ordered task graph (Algorithm 1 + Fig. 6) and the
   batch partition the barrier baseline would use;
3. :meth:`StageRunner.run` drains the stage on the calling thread:
   fused conflict-free groups when the stage offers a ``batch_plan``,
   otherwise one task at a time in the task graph's deterministic
   topological order, each result committed before the next task runs.

The runner emits a :class:`StageReport`: measured per-task durations
and the two modelled ``n_workers`` makespans (task-graph vs
batch-barrier) the paper's Table VIII compares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.geometry import Rect
from repro.sched.conflict import ConflictGraph
from repro.sched.executor import (
    simulate_batch_barrier_makespan,
    simulate_makespan,
)
from repro.sched.taskgraph import TaskGraph, build_task_graph


class ScheduledStage:
    """A stage of the flow expressed as schedulable tasks.

    Subclasses define the task list implicitly through
    :meth:`task_boxes` (one footprint — a sequence of rectangles — per
    task; tasks conflict when their footprints overlap) and provide the
    task body.  ``run_task`` must not publish shared results itself;
    the runner calls ``commit_task`` with its result before any
    conflicting successor runs.
    """

    name: str = "stage"

    def task_boxes(self) -> Sequence[Sequence[Rect]]:
        """Return each task's conflict footprint (its bounding boxes)."""
        raise NotImplementedError

    def task_label(self, task: int) -> str:
        """Return a stable human-readable name for ``task``."""
        return str(task)

    def prepare(self) -> None:
        """Reset per-run state; called once before execution starts."""

    def run_task(self, task: int) -> object:
        """Execute ``task``; return its result for :meth:`commit_task`."""
        raise NotImplementedError

    def commit_task(self, task: int, result: object) -> None:
        """Publish ``result``; called before any successor starts."""

    def batch_plan(
        self, schedule: "StageSchedule"
    ) -> Optional[List[List[int]]]:
        """Return conflict-free task groups for batched dispatch, or None.

        ``None`` (the default) means the stage executes one task at a
        time.  A stage that can run several non-conflicting tasks as a
        single fused dispatch (the stacked maze relaxation) returns an
        ordered list of groups instead.  Executing the groups in order
        must be a linear extension of ``schedule.task_graph`` and every
        group must be conflict-free — :meth:`TaskGraph.levels` satisfies
        both — so the runner can commit each group's results in task-ID
        order and still reproduce per-task execution bit for bit.
        """
        return None

    def run_batch(self, tasks: Sequence[int]) -> Dict[int, object]:
        """Execute a conflict-free group as one batch.

        Returns the per-task results keyed by task ID; each is handed to
        :meth:`commit_task` exactly as a ``run_task`` result would be.
        Only called when :meth:`batch_plan` returned groups.
        """
        raise NotImplementedError


def build_group_conflict_graph(
    groups: Sequence[Sequence[Rect]], bin_size: int = 16
) -> ConflictGraph:
    """Conflict graph over box *groups*: tasks conflict when any box of
    one overlaps any box of the other.

    Same spatial binning as
    :func:`~repro.sched.conflict.build_conflict_graph` (which is the
    single-box special case), kept exact: all and only overlapping
    groups become edges.
    """
    if bin_size < 1:
        raise ValueError("bin_size must be >= 1")
    graph = ConflictGraph(len(groups))
    n_boxes = sum(len(boxes) for boxes in groups)
    if n_boxes == 0:
        return graph
    task = np.empty(n_boxes, dtype=np.int64)
    x0 = np.empty(n_boxes, dtype=np.int64)
    y0 = np.empty(n_boxes, dtype=np.int64)
    x1 = np.empty(n_boxes, dtype=np.int64)
    y1 = np.empty(n_boxes, dtype=np.int64)
    bins: Dict[Tuple[int, int], List[int]] = {}
    flat = 0
    for index, boxes in enumerate(groups):
        for box in boxes:
            task[flat] = index
            x0[flat], y0[flat] = box.xlo, box.ylo
            x1[flat], y1[flat] = box.xhi, box.yhi
            for bx in range(box.xlo // bin_size, box.xhi // bin_size + 1):
                for by in range(box.ylo // bin_size, box.yhi // bin_size + 1):
                    bins.setdefault((bx, by), []).append(flat)
            flat += 1
    # Pairwise closed-rect overlap per bin, vectorised: any overlapping
    # pair shares the bin containing its intersection, so the union
    # over bins is exactly the conflict relation (duplicates collapse
    # in the bulk insert).
    pair_codes: List[np.ndarray] = []
    n_tasks = len(groups)
    for members in bins.values():
        if len(members) < 2:
            continue
        idx = np.asarray(members, dtype=np.int64)
        bx0, bx1 = x0[idx], x1[idx]
        by0, by1 = y0[idx], y1[idx]
        overlap = (
            (bx0[:, None] <= bx1[None, :])
            & (bx0[None, :] <= bx1[:, None])
            & (by0[:, None] <= by1[None, :])
            & (by0[None, :] <= by1[:, None])
        )
        row, col = np.nonzero(np.triu(overlap, 1))
        a_tasks, b_tasks = task[idx[row]], task[idx[col]]
        distinct = a_tasks != b_tasks
        a_tasks, b_tasks = a_tasks[distinct], b_tasks[distinct]
        lo = np.minimum(a_tasks, b_tasks)
        hi = np.maximum(a_tasks, b_tasks)
        pair_codes.append(lo * n_tasks + hi)
    if pair_codes:
        codes = np.unique(np.concatenate(pair_codes))
        graph.add_conflicts_bulk(codes // n_tasks, codes % n_tasks)
    return graph


def extract_conflict_batches(conflicts: ConflictGraph) -> List[List[int]]:
    """Greedy maximal conflict-free batches over an explicit conflict
    graph (Algorithm 1 semantics — the barrier baseline's partition)."""
    remaining = list(range(conflicts.n_tasks))
    batches: List[List[int]] = []
    while remaining:
        chosen: set = set()
        batch: List[int] = []
        leftovers: List[int] = []
        for task in remaining:
            if conflicts.conflicts_of(task) & chosen:
                leftovers.append(task)
            else:
                chosen.add(task)
                batch.append(task)
        batches.append(batch)
        remaining = leftovers
    return batches


@dataclass
class StageSchedule:
    """Everything the scheduler derived from a stage's footprints."""

    boxes: List[List[Rect]]
    conflicts: ConflictGraph
    task_graph: TaskGraph
    batches: List[List[int]]

    @property
    def n_tasks(self) -> int:
        return self.task_graph.n_tasks


@dataclass
class StageReport:
    """Uniform execution record of one scheduled stage run."""

    stage: str
    n_workers: int
    n_tasks: int
    n_conflicts: int
    n_batches: int
    task_durations: List[float] = field(default_factory=list)
    taskgraph_makespan: float = 0.0
    batch_makespan: float = 0.0
    schedule: Optional[StageSchedule] = None

    @property
    def sequential_time(self) -> float:
        """Sum of per-task durations (the 1-worker makespan)."""
        return sum(self.task_durations)

    @property
    def scheduler_speedup(self) -> float:
        """Batch-barrier / task-graph makespan (the Table VIII ratio)."""
        if self.taskgraph_makespan <= 0:
            return 1.0
        return self.batch_makespan / self.taskgraph_makespan

    def makespan(self, strategy: str) -> float:
        """Modelled makespan under ``"taskgraph"`` or ``"batch"``."""
        if strategy not in ("taskgraph", "batch"):
            raise ValueError(f"unknown parallel strategy {strategy!r}")
        return (
            self.taskgraph_makespan
            if strategy == "taskgraph"
            else self.batch_makespan
        )


def modelled_makespans(
    schedule: StageSchedule, durations: Sequence[float], n_workers: int
) -> Tuple[float, float]:
    """Return ``(task-graph, batch-barrier)`` makespans of a schedule."""
    dag = simulate_makespan(schedule.task_graph, durations, n_workers)
    barrier = simulate_batch_barrier_makespan(
        schedule.batches, durations, n_workers
    )
    return dag, barrier


class StageRunner:
    """Schedules and executes :class:`ScheduledStage` instances."""

    def __init__(self, n_workers: int = 8, bin_size: int = 16) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        # The P of the modelled makespans; execution is one thread.
        self.n_workers = n_workers
        self.bin_size = bin_size

    def schedule(self, stage: ScheduledStage) -> StageSchedule:
        """Build conflict graph, ordered task graph and batch partition."""
        boxes = [list(group) for group in stage.task_boxes()]
        conflicts = build_group_conflict_graph(boxes, self.bin_size)
        return StageSchedule(
            boxes=boxes,
            conflicts=conflicts,
            task_graph=build_task_graph(conflicts),
            batches=extract_conflict_batches(conflicts),
        )

    def run(
        self, stage: ScheduledStage, schedule: Optional[StageSchedule] = None
    ) -> StageReport:
        """Execute ``stage`` on the calling thread; return its report."""
        if schedule is None:
            schedule = self.schedule(stage)
        n = schedule.n_tasks
        stage.prepare()
        durations = [0.0] * n

        groups = stage.batch_plan(schedule) if n > 0 else None
        if groups is not None:
            # Batched dispatch: each group is conflict-free and the
            # group order is a linear extension of the task graph, so
            # running a whole group as one fused dispatch and then
            # committing its results in task-ID order reproduces the
            # per-task loop below exactly.  The measured group wall time
            # is split evenly across members so sequential_time and the
            # modelled makespans stay comparable with per-task runs.
            for group in groups:
                members = list(group)
                if not members:
                    continue
                start = time.perf_counter()
                results = stage.run_batch(members)
                share = (time.perf_counter() - start) / len(members)
                for task in members:
                    durations[task] = share
                    stage.commit_task(task, results[task])
        else:
            for task in schedule.task_graph.topological_order():
                start = time.perf_counter()
                result = stage.run_task(task)
                durations[task] = time.perf_counter() - start
                stage.commit_task(task, result)

        taskgraph_makespan, batch_makespan = (
            modelled_makespans(schedule, durations, self.n_workers)
            if n > 0
            else (0.0, 0.0)
        )
        return StageReport(
            stage=stage.name,
            n_workers=self.n_workers,
            n_tasks=n,
            n_conflicts=schedule.conflicts.n_conflicts(),
            n_batches=len(schedule.batches),
            task_durations=durations,
            taskgraph_makespan=taskgraph_makespan,
            batch_makespan=batch_makespan,
            schedule=schedule,
        )


__all__ = [
    "ScheduledStage",
    "StageSchedule",
    "StageReport",
    "StageRunner",
    "build_group_conflict_graph",
    "extract_conflict_batches",
    "modelled_makespans",
]
