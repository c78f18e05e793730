"""The scheduled-stage pipeline: one scheduler for both routing stages.

The paper applies the heterogeneous task-graph scheduler to *both*
stages of the flow (Fig. 5): pattern-routing batches and maze-reroute
nets are just tasks with a spatial conflict relation.  This module is
the single place that turns a stage into scheduled execution:

1. a :class:`ScheduledStage` describes its nets — one conflict box per
   net, in sort order — how to cut Algorithm 1's net batches into tasks
   (``group``; one task per net by default), a ``run_task`` body and a
   ``commit_task`` that publishes the result;
2. :meth:`StageRunner.schedule` lists the overlapping net pairs as
   index arrays (:func:`box_conflicts`), runs Algorithm 1 once over the
   net boxes, lets the stage group each batch into tasks, and orients
   the task pairs into the ordered task graph around batch 0's tasks
   (Fig. 6); each batch's tasks are the barrier baseline's partition;
3. :meth:`StageRunner.run` drains the stage on the calling thread:
   one task at a time in the task graph's deterministic topological
   order, each result committed before the next task runs — or, when
   the stage offers a ``batch_plan``, fused conflict-free groups.  Only
   the reroute stage under the wavefront maze engine offers one; a
   pattern task is already one fused ``route_batch`` call.

The runner emits a :class:`StageReport`: measured per-task durations
and the two modelled ``n_workers`` makespans (task-graph vs
batch-barrier) the paper's Table VIII compares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.geometry import Rect
from repro.sched.batching import extract_batches
from repro.sched.executor import (
    simulate_batch_barrier_makespan,
    simulate_makespan,
)
from repro.sched.taskgraph import TaskGraph, build_task_graph
from repro.utils.arrays import unique_sorted

#: Side, in G-cells, of the square bins :func:`box_conflicts` tests
#: overlaps in; it affects only speed, never the relation.
BIN_SIZE = 16


class ScheduledStage:
    """A stage of the flow expressed as schedulable tasks.

    Subclasses list their nets' conflict boxes through :meth:`boxes`
    (nets conflict when their boxes overlap), may cut Algorithm 1's net
    batches into multi-net tasks through :meth:`group`, and provide the
    task body.  ``run_task`` must not publish shared results itself;
    the runner calls ``commit_task`` with its result before any
    conflicting successor runs.
    """

    name: str = "stage"

    def boxes(self) -> Sequence[Rect]:
        """Return one conflict box per net, in the stage's sort order."""
        raise NotImplementedError

    def group(self, batches: List[List[int]]) -> List[List[int]]:
        """Cut Algorithm 1's net ``batches`` into tasks (lists of net
        positions); each task's nets must come from one batch.

        The default is one task per net, in net order.
        """
        return [[net] for net in range(sum(map(len, batches)))]

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


def box_conflicts(boxes: Sequence[Rect]) -> np.ndarray:
    """The overlap relation over ``boxes``: a ``(2, P)`` array of
    sorted, unique columns ``(a, b)``, ``a < b``, one per overlapping
    pair of box indices.

    Each box registers in every :data:`BIN_SIZE`-sized cell it touches
    and only boxes sharing a cell are overlap-tested, kept exact: all
    and only overlapping pairs are listed.
    """
    n = len(boxes)
    if n == 0:
        return np.empty((2, 0), dtype=np.int64)
    x0, y0, x1, y1 = np.array(
        [box.as_tuple() for box in boxes], dtype=np.int64
    ).T
    bins: Dict[Tuple[int, int], List[int]] = {}
    for index, box in enumerate(boxes):
        for bx in range(box.xlo // BIN_SIZE, box.xhi // BIN_SIZE + 1):
            for by in range(box.ylo // BIN_SIZE, box.yhi // BIN_SIZE + 1):
                bins.setdefault((bx, by), []).append(index)
    # Pairwise closed-rect overlap per bin, vectorised: any overlapping
    # pair shares the bin containing its intersection, so the union
    # over bins is exactly the relation (duplicates collapse in the
    # sort).  Bin members are listed in index order, so the upper
    # triangle gives ``a < b``.
    codes: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
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
        codes.append(idx[row] * n + idx[col])
    return np.stack(np.divmod(unique_sorted(np.concatenate(codes)), n))


@dataclass
class StageSchedule:
    """Everything the scheduler derived from a stage's net boxes."""

    task_graph: TaskGraph
    #: Each Algorithm-1 batch's tasks; the first is the root batch.
    batches: List[List[int]]
    n_conflicts: int
    #: Overlapping net pairs, as stage positions (see :func:`box_conflicts`).
    pairs: np.ndarray
    #: The task of each net position.
    task_of: np.ndarray

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

    def __init__(self, n_workers: int = 8) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        # The P of the modelled makespans; execution is one thread.
        self.n_workers = n_workers

    def schedule(self, stage: ScheduledStage) -> StageSchedule:
        """Build the conflict pairs, batch partition and ordered task graph.

        Raises ``ValueError`` unless ``stage.group`` partitions the nets
        into tasks that each lie in one Algorithm-1 batch.
        """
        boxes = stage.boxes()
        n_nets = len(boxes)
        pairs = box_conflicts(boxes)
        # Boxes are (non-negative) G-cell boxes: a grid reaching the
        # largest box corner clips none of them.
        nx = 1 + max((box.xhi for box in boxes), default=0)
        ny = 1 + max((box.yhi for box in boxes), default=0)
        net_batches = extract_batches(boxes, nx, ny)
        tasks = stage.group(net_batches)
        n_tasks = len(tasks)
        sizes = [len(task) for task in tasks]
        members = np.array(list(chain.from_iterable(tasks)), dtype=np.int64)
        if 0 in sizes or not np.array_equal(np.sort(members), np.arange(n_nets)):
            raise ValueError(f"{stage.name} tasks do not partition its nets")
        task_of = np.empty(n_nets, dtype=np.int64)
        task_of[members] = np.repeat(np.arange(n_tasks), sizes)
        batch_of = np.empty(n_nets, dtype=np.int64)
        for index, batch in enumerate(net_batches):
            batch_of[batch] = index
        task_batch = np.empty(n_tasks, dtype=np.int64)
        task_batch[task_of] = batch_of
        if not np.array_equal(task_batch[task_of], batch_of):
            raise ValueError(f"a {stage.name} task spans two batches")
        # A batch is independent, so overlapping nets sit in distinct tasks.
        a, b = task_of[pairs]
        codes = unique_sorted(np.minimum(a, b) * n_tasks + np.maximum(a, b))
        batches: List[List[int]] = [[] for _ in net_batches]
        for task, index in enumerate(task_batch.tolist()):
            batches[index].append(task)
        return StageSchedule(
            task_graph=build_task_graph(
                n_tasks, batches[0] if batches else [], *np.divmod(codes, n_tasks)
            ),
            batches=batches,
            n_conflicts=int(codes.size),
            pairs=pairs,
            task_of=task_of,
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
            n_conflicts=schedule.n_conflicts,
            n_batches=len(schedule.batches),
            task_durations=durations,
            taskgraph_makespan=taskgraph_makespan,
            batch_makespan=batch_makespan,
        )


__all__ = [
    "ScheduledStage",
    "StageSchedule",
    "StageReport",
    "StageRunner",
    "box_conflicts",
    "modelled_makespans",
]
