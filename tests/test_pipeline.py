"""Tests for the scheduled-stage pipeline (repro.sched.pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import flow
from repro.core.config import RouterConfig
from repro.core.flow import PatternStage
from repro.core.router import GlobalRouter
from repro.gpu.device import Device
from repro.grid.geometry import Rect
from repro.netlist.generator import DesignSpec, generate_design
from repro.sched.batching import extract_batches
from repro.sched.pipeline import (
    ScheduledStage,
    StageRunner,
    box_conflicts,
    modelled_makespans,
)
from repro.sched.sorting import sort_nets
from repro.utils.rng import make_rng
from tests.sched_oracle import (
    TaskGraphExecutor,
    build_conflict_graph,
    extract_conflict_batches,
    oracle_schedule,
)


def random_boxes(n_nets, seed=0, span=60):
    rng = make_rng(("pipeline-boxes", seed))
    boxes = []
    for _ in range(n_nets):
        x = int(rng.integers(0, span))
        y = int(rng.integers(0, span))
        w = int(rng.integers(0, 10))
        h = int(rng.integers(0, 10))
        boxes.append(Rect(x, y, min(x + w, span), min(y + h, span)))
    return boxes


def random_pieces(seed):
    """A grouping that cuts each Algorithm-1 batch into random pieces of
    shuffled members, batch by batch."""
    rng = make_rng(("pipeline-pieces", seed))

    def group(batches):
        tasks = []
        for batch in batches:
            members = [batch[i] for i in rng.permutation(len(batch))]
            cuts = sorted(set(rng.integers(1, len(batch) + 1, size=3).tolist()))
            for lo, hi in zip([0, *cuts], cuts):
                tasks.append(members[lo:hi])
            if cuts[-1] < len(batch):
                tasks.append(members[cuts[-1]:])
        return tasks

    return group


class BoxStage(ScheduledStage):
    """Synthetic stage: nets own boxes, tasks record execution and
    commit order; ``grouping`` (when given) replaces the one-task-per-net
    default."""

    name = "synthetic"

    def __init__(self, boxes, grouping=None, work=None):
        self._boxes = boxes
        self._grouping = grouping
        self._work = work
        self.tasks = None
        self.committed = []

    def boxes(self):
        return self._boxes

    def group(self, batches):
        grouping = self._grouping or super().group
        self.tasks = grouping(batches)
        return self.tasks

    def run_task(self, task):
        if self._work is not None:
            self._work(task)
        return task * task

    def commit_task(self, task, result):
        self.committed.append((task, result))


def grouped_stage(n_nets, seed, span=60):
    return BoxStage(random_boxes(n_nets, seed=seed, span=span), random_pieces(seed))


def columns(pairs):
    return [tuple(col) for col in pairs.T.tolist()]


def task_pairs(schedule):
    """The schedule's task conflicts, read back from its DAG."""
    graph = schedule.task_graph
    return sorted(
        (min(t, s), max(t, s)) for t in range(graph.n_tasks) for s in graph.successors[t]
    )


def overlapping(boxes):
    return [
        (a, b)
        for a in range(len(boxes))
        for b in range(a + 1, len(boxes))
        if boxes[a].overlaps(boxes[b])
    ]


class TestGroupConflictGraph:
    def test_matches_brute_force(self):
        """Tasks conflict when a net of one overlaps a net of the other."""
        stage = grouped_stage(40, seed=3)
        schedule = StageRunner().schedule(stage)
        boxes = stage.boxes()
        expected = [
            (a, b)
            for a in range(len(stage.tasks))
            for b in range(a + 1, len(stage.tasks))
            if any(
                boxes[p].overlaps(boxes[q])
                for p in stage.tasks[a]
                for q in stage.tasks[b]
            )
        ]
        assert task_pairs(schedule) == expected
        assert schedule.n_conflicts == len(expected)

    def test_box_pairs_match_brute_force(self):
        boxes = random_boxes(40, seed=7)
        assert columns(box_conflicts(boxes)) == overlapping(boxes)
        assert box_conflicts([]).shape == (2, 0)

    def test_single_box_groups_match_plain_conflict_graph(self):
        """Under the default grouping a task is a net: the task
        conflicts are the net overlaps."""
        boxes = random_boxes(30, seed=9)
        schedule = StageRunner().schedule(BoxStage(boxes))
        assert task_pairs(schedule) == sorted(build_conflict_graph(boxes).edges())
        assert columns(schedule.pairs) == task_pairs(schedule)
        assert schedule.task_of.tolist() == list(range(30))


class TestConflictBatches:
    def test_batches_partition_and_are_independent(self):
        stage = grouped_stage(50, seed=4)
        batches = StageRunner().schedule(stage).batches
        footprints = [[stage.boxes()[p] for p in task] for task in stage.tasks]
        conflicts = oracle_schedule(footprints)[0]
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(len(stage.tasks)))
        for batch in batches:
            assert conflicts.is_independent_set(batch)

    def test_first_batch_is_root_batch(self):
        schedule = StageRunner().schedule(grouped_stage(50, seed=5))
        assert schedule.batches[0] == schedule.task_graph.root_batch

    def test_matches_occupancy_batching_for_single_boxes(self):
        """The oracle's greedy rounds over the set relation are
        Algorithm 1's bitset batches."""
        boxes = random_boxes(40, seed=6)
        assert extract_conflict_batches(
            build_conflict_graph(boxes)
        ) == extract_batches(boxes, 80, 80)


class TestScheduleOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_schedule_matches_oracle(self, seed):
        """One Algorithm 1 over net boxes, regrouped by task, reproduces
        the set-based oracle over the tasks' multi-box footprints."""
        rng = make_rng(("schedule-oracle", seed))
        stage = grouped_stage(
            int(rng.integers(0, 60)), seed=100 + seed, span=int(rng.integers(8, 80))
        )
        schedule = StageRunner().schedule(stage)
        boxes = stage.boxes()
        footprints = [[boxes[p] for p in task] for task in stage.tasks]
        conflicts, graph, batches = oracle_schedule(footprints)
        assert schedule.batches == batches
        assert schedule.task_graph.root_batch == graph.root_batch
        assert [set(s) for s in schedule.task_graph.successors] == [
            set(s) for s in graph.successors
        ]
        assert schedule.task_graph.n_predecessors == graph.n_predecessors
        assert schedule.n_conflicts == conflicts.n_conflicts()
        assert columns(schedule.pairs) == overlapping(boxes)
        assert all(
            schedule.task_of[p] == t for t, task in enumerate(stage.tasks) for p in task
        )
        assert schedule.task_of.size == len(boxes)

    def test_grouping_must_partition_the_batches(self):
        """A task split across two batches, or a net left out (or
        listed twice), is refused."""
        boxes = [Rect(0, 0, 3, 3), Rect(2, 2, 5, 5), Rect(8, 8, 9, 9)]
        runner = StageRunner()
        # Algorithm 1 batches: [[0, 2], [1]].
        assert runner.schedule(BoxStage(boxes, lambda b: [[0, 2], [1]])).n_tasks == 2
        for tasks in ([[0, 1], [2]], [[0, 2]], [[0], [2], [1], [1]], [[0, 2], [1], []]):
            with pytest.raises(ValueError):
                runner.schedule(BoxStage(boxes, lambda b, tasks=tasks: tasks))


class TestStageRunner:
    def test_policy_validation(self):
        """The runner takes no execution policy; n_workers is validated."""
        with pytest.raises(TypeError):
            StageRunner(policy="ordered")
        with pytest.raises(ValueError):
            StageRunner(n_workers=0)

    def test_runs_and_commits_every_task(self):
        stage = grouped_stage(30, seed=7)
        report = StageRunner(n_workers=8).run(stage)
        n_tasks = len(stage.tasks)
        assert sorted(t for t, _ in stage.committed) == list(range(n_tasks))
        assert all(result == t * t for t, result in stage.committed)
        assert report.n_tasks == n_tasks
        assert len(report.task_durations) == n_tasks

    def test_empty_stage(self):
        report = StageRunner().run(BoxStage([]))
        assert report.n_tasks == 0
        assert report.taskgraph_makespan == 0.0
        assert report.batch_makespan == 0.0
        assert report.sequential_time == 0.0

    def test_commits_in_topological_order(self):
        stage = grouped_stage(25, seed=8)
        runner = StageRunner()
        schedule = runner.schedule(stage)
        runner.run(stage, schedule=schedule)
        order = [t for t, _ in stage.committed]
        assert order == schedule.task_graph.topological_order()

    @pytest.mark.parametrize("seed", [8, 21, 34])
    def test_commit_order_matches_threaded_oracle(self, seed):
        """The one-thread drain is the paper's threaded release rule
        run on one worker: same tasks, same order."""
        stage = grouped_stage(40, seed=seed)
        runner = StageRunner()
        schedule = runner.schedule(stage)
        runner.run(stage, schedule=schedule)
        started = TaskGraphExecutor(n_workers=1).run(
            schedule.task_graph, lambda task: None
        )
        assert [t for t, _ in stage.committed] == started

    def test_makespans_bounded(self):
        stage = grouped_stage(20, seed=11)
        runner = StageRunner(n_workers=4)
        report = runner.run(stage)
        assert report.taskgraph_makespan <= report.sequential_time + 1e-9
        assert report.batch_makespan <= report.sequential_time + 1e-9
        assert report.scheduler_speedup >= 0

    def test_modelled_makespans_helper(self):
        stage = grouped_stage(15, seed=12)
        runner = StageRunner()
        schedule = runner.schedule(stage)
        durations = [1.0] * schedule.n_tasks
        dag, barrier = modelled_makespans(schedule, durations, 4)
        assert dag <= barrier + 1e-9

    def test_report_makespan_strategy(self):
        stage = grouped_stage(10, seed=13)
        report = StageRunner().run(stage)
        assert report.makespan("taskgraph") == report.taskgraph_makespan
        assert report.makespan("batch") == report.batch_makespan
        with pytest.raises(ValueError):
            report.makespan("magic")


def small_design(seed=7):
    return generate_design(
        DesignSpec(
            name="pipe-congested",
            nx=20,
            ny=20,
            n_layers=5,
            n_nets=140,
            wire_capacity=1.5,
            hotspot_fraction=0.6,
            seed=11,
        )
    )


def test_cost_snapshot_consistent_after_run():
    """A cost snapshot built on the graph a finished run leaves behind
    agrees with the from-scratch oracle, and keeps agreeing across a
    commit/uncommit cycle."""
    from repro.grid.cost import CostModel, CostQuery
    from tests.cost_oracle import FullRebuildCostQuery

    design = small_design()
    result = GlobalRouter(design, RouterConfig.fastgr_l()).run()
    graph = design.graph
    model = CostModel()
    full = FullRebuildCostQuery(graph, model)
    incremental = CostQuery(graph, model)

    def assert_same_tables():
        for layer in range(graph.n_layers):
            assert np.array_equal(
                full.wire_cost[layer], incremental.wire_cost[layer]
            )
        assert np.array_equal(full.via_cost, incremental.via_cost)

    assert_same_tables()
    # Mutate demand exactly like a later RRR pass.
    some_route = next(iter(result.routes.values()))
    some_route.uncommit(graph)
    some_route.commit(graph)
    full.rebuild()
    incremental.rebuild()
    assert_same_tables()


class TestPatternChainFreedom:
    """Pattern tasks with non-conflicting boxes run without a chain."""

    CONFIG_KW = dict(n_workers=4)
    PIECE_NETS = 8

    def _stage(self, config, monkeypatch):
        monkeypatch.setattr(flow, "PIECE_NETS", self.PIECE_NETS)
        design = small_design()
        return design, PatternStage(design, config, Device())

    def test_sibling_chunks_have_no_dependency(self, monkeypatch):
        config = RouterConfig.fastgr_l(**self.CONFIG_KW)
        design, stage = self._stage(config, monkeypatch)
        nets = sort_nets(list(design.netlist), config.sorting_scheme)
        batches = extract_batches(
            [n.bbox for n in nets], design.graph.nx, design.graph.ny
        )
        assert len(batches[0]) > self.PIECE_NETS
        schedule = StageRunner(n_workers=4).schedule(stage)
        assert schedule.n_tasks > len(batches)
        # Tasks 0 and 1 are siblings: groups of the first batch, so no
        # net of one overlaps a net of the other.
        assert (0, 1) not in columns(np.sort(schedule.task_of[schedule.pairs], axis=0))
        graph = schedule.task_graph
        assert 1 not in graph.successors[0] and 0 not in graph.successors[1]
        assert 0 in graph.root_batch and 1 in graph.root_batch
