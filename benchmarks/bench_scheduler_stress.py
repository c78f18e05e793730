"""Scheduler stress study — task graph vs batch barrier at scale.

The paper's 2.501x scheduler speedup (Table VIII discussion) is
measured on full-size designs where thousands of heterogeneous reroute
tasks contend: per-net maze times span orders of magnitude and the
violating nets mix dense hotspots with die-wide scatter.  The recorded
durations of the scaled suite are too small and its conflict graphs too
dense (a scaled-down die packs bounding boxes together) to show the
barrier penalty, so this bench reconstructs the paper-scale regime:

* the *conflict structure* comes from the full-scale (scale=1.0)
  19test9m netlist — generation is cheap; no routing is needed to know
  the bounding boxes — sampling a rip-up-sized subset of nets
  (hotspot-weighted by construction of the generator);
* the *durations* are deterministic heavy-tailed log-normals calibrated
  to maze behaviour (duration grows with bounding-box area; the sigma
  matches the orders-of-magnitude spread of full-size per-net times).

The stage is scheduled and actually executed through the
scheduled-stage pipeline (on the calling thread — the makespans are
modelled from the schedule and the synthetic durations); the only
difference between the compared strategies is the barrier, which is
exactly what the paper's comparison isolates.

Quick mode: set ``REPRO_STRESS_WORKERS`` (e.g. ``"8"``) to restrict the
worker sweep — the >=1.5x assertion holds already at 8 workers.  Such a
run is stamped ``quick`` and leaves the committed table alone.
"""

from __future__ import annotations

import os

import numpy as np

from conftest import register_table

from repro.eval.report import format_table
from repro.netlist.benchmarks import load_benchmark
from repro.sched.pipeline import (
    ScheduledStage,
    StageRunner,
    modelled_makespans,
)
from repro.sched.sorting import sort_nets
from repro.utils.rng import make_rng

DESIGN = "19test9m"
SAMPLE_FRACTION = 0.12  # a realistic rip-up set: ~12% of nets
SIGMA = 1.8  # heavy-tailed per-task durations (orders of magnitude)
FULL_WORKERS = "4,8,16,32"
WORKERS = tuple(
    int(w)
    for w in os.environ.get("REPRO_STRESS_WORKERS", FULL_WORKERS).split(",")
)
QUICK = WORKERS != tuple(int(w) for w in FULL_WORKERS.split(","))

_BOXES = None


def sampled_boxes():
    global _BOXES
    if _BOXES is None:
        design = load_benchmark(DESIGN, scale=1.0)
        nets = list(design.netlist)
        stride = max(1, int(1 / SAMPLE_FRACTION))
        sample = sort_nets(nets[::stride], "hpwl_asc")
        _BOXES = [net.bbox for net in sample]
    return _BOXES


class StressStage(ScheduledStage):
    """A reroute-shaped stage: one net per task, trivial bodies."""

    name = "stress"

    def __init__(self, boxes):
        self._boxes = boxes
        self.n_committed = 0

    def boxes(self):
        return self._boxes

    def prepare(self):
        self.n_committed = 0

    def run_task(self, task):
        return task

    def commit_task(self, task, result):
        self.n_committed += 1


def test_scheduler_stress(benchmark):
    boxes = sampled_boxes()
    rng = make_rng(("sched-stress", DESIGN))
    areas = np.array([box.area for box in boxes], dtype=float)
    durations = (0.01 * areas / areas.mean()) * rng.lognormal(
        mean=0.0, sigma=SIGMA, size=len(boxes)
    )

    stage = StressStage(boxes)
    runner = StageRunner(n_workers=max(WORKERS))
    schedule = runner.schedule(stage)
    report = benchmark.pedantic(
        lambda: runner.run(stage, schedule=schedule), rounds=1, iterations=1
    )
    assert stage.n_committed == len(boxes)
    assert report.n_tasks == len(boxes)

    rows = []
    for workers in WORKERS:
        dag, barrier = modelled_makespans(schedule, durations, workers)
        rows.append(
            [workers, float(durations.sum()), barrier, dag, barrier / dag]
        )
    text = format_table(
        ["workers", "sequential(s)", "batch-barrier(s)", "task-graph(s)", "speedup"],
        rows,
        title=(
            f"Scheduler stress on full-scale {DESIGN}: "
            f"{report.n_tasks} tasks, {report.n_conflicts} conflicts, "
            f"{report.n_batches} batches (paper: 2.501x)"
        ),
    )
    best_ratio = max(row[4] for row in rows)
    register_table(
        "scheduler_stress",
        text,
        config=f"stress|{DESIGN}|workers={','.join(map(str, WORKERS))}",
        metrics={
            "n_tasks": report.n_tasks,
            "n_conflicts": report.n_conflicts,
            "n_batches": report.n_batches,
            "best_speedup": best_ratio,
            "quick": float(QUICK),
        },
    )
    # Shape: with enough workers and heterogeneous tasks, the barrier
    # strategy pays and the task graph wins clearly.
    assert best_ratio >= 1.5

