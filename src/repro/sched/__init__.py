"""Heterogeneous task graph scheduler (Sec. III-B/III-C, Fig. 6).

Nets conflict when their bounding boxes overlap (they may compete for
the same grid edges).  The scheduler (1) lists the overlapping net
pairs as index arrays (:func:`box_conflicts`), (2) runs Algorithm 1
once over the net boxes (:func:`extract_batches`), (3) lets the stage
cut each batch into tasks — a task conflicts with another when a net
of one overlaps a net of the other — and (4) orients every task
conflict (root -> non-root, where the root batch is the first batch's
tasks; otherwise smaller task ID -> larger), producing a DAG.  The
paper drains it with Taskflow threads; here :class:`StageRunner`
drains it on the calling thread and the parallel makespans are
modelled (DESIGN.md Sec. 2).  The threaded pool that states the
paper's release rule, and a set-based conflict graph over multi-box
task footprints with its own greedy rounds and orientation, are test
oracles (``tests/sched_oracle.py``).
"""

from repro.sched.sorting import SORTING_SCHEMES, sort_nets
from repro.sched.batching import extract_batches
from repro.sched.taskgraph import TaskGraph, build_task_graph
from repro.sched.executor import (
    simulate_batch_barrier_makespan,
    simulate_makespan,
)
from repro.sched.pipeline import (
    ScheduledStage,
    StageReport,
    StageRunner,
    StageSchedule,
    box_conflicts,
    modelled_makespans,
)

__all__ = [
    "SORTING_SCHEMES",
    "sort_nets",
    "extract_batches",
    "TaskGraph",
    "build_task_graph",
    "simulate_makespan",
    "simulate_batch_barrier_makespan",
    "ScheduledStage",
    "StageSchedule",
    "StageReport",
    "StageRunner",
    "box_conflicts",
    "modelled_makespans",
]
