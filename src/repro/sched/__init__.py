"""Heterogeneous task graph scheduler (Sec. III-B/III-C, Fig. 6).

Routing tasks conflict when their bounding boxes overlap (they may
compete for the same grid edges).  The scheduler (1) builds the task
conflict graph, (2) extracts a conflict-free *root batch*, (3) orients
every conflict edge (root -> non-root; otherwise smaller task ID ->
larger), producing a DAG.  The paper drains it with Taskflow threads;
here :class:`StageRunner` drains it on the calling thread and the
parallel makespans are modelled (DESIGN.md Sec. 2).
"""

from repro.sched.sorting import SORTING_SCHEMES, sort_nets
from repro.sched.conflict import ConflictGraph, build_conflict_graph
from repro.sched.batching import extract_batches
from repro.sched.taskgraph import TaskGraph, build_task_graph
from repro.sched.executor import (
    TaskGraphExecutor,
    simulate_batch_barrier_makespan,
    simulate_makespan,
)
from repro.sched.pipeline import (
    ScheduledStage,
    StageReport,
    StageRunner,
    StageSchedule,
    group_conflicts,
    extract_conflict_batches,
    modelled_makespans,
)

__all__ = [
    "SORTING_SCHEMES",
    "sort_nets",
    "ConflictGraph",
    "build_conflict_graph",
    "extract_batches",
    "TaskGraph",
    "build_task_graph",
    "TaskGraphExecutor",
    "simulate_makespan",
    "simulate_batch_barrier_makespan",
    "ScheduledStage",
    "StageSchedule",
    "StageReport",
    "StageRunner",
    "group_conflicts",
    "extract_conflict_batches",
    "modelled_makespans",
]
