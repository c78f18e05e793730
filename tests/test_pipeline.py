"""Tests for the scheduled-stage pipeline (repro.sched.pipeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RouterConfig
from repro.core.flow import PatternStage
from repro.core.router import GlobalRouter
from repro.gpu.device import Device
from repro.gpu.zerocopy import ZeroCopyArena
from repro.grid.geometry import Rect
from repro.netlist.generator import DesignSpec, generate_design
from repro.sched.batching import extract_batches
from repro.sched.conflict import build_conflict_graph
from repro.sched.pipeline import (
    ScheduledStage,
    StageRunner,
    build_group_conflict_graph,
    extract_conflict_batches,
    modelled_makespans,
)
from repro.sched.sorting import sort_nets
from repro.sched.taskgraph import build_task_graph
from repro.utils.rng import make_rng


def random_groups(n_tasks, seed=0, span=60, max_boxes=2):
    rng = make_rng(("pipeline-boxes", seed))
    groups = []
    for _ in range(n_tasks):
        boxes = []
        for _ in range(int(rng.integers(1, max_boxes + 1))):
            x = int(rng.integers(0, span))
            y = int(rng.integers(0, span))
            w = int(rng.integers(0, 10))
            h = int(rng.integers(0, 10))
            boxes.append(Rect(x, y, min(x + w, span), min(y + h, span)))
        groups.append(boxes)
    return groups


class BoxStage(ScheduledStage):
    """Synthetic stage: tasks own boxes, record execution, commit order."""

    name = "synthetic"

    def __init__(self, groups, work=None):
        self._groups = groups
        self._work = work
        self.committed = []

    def task_boxes(self):
        return self._groups

    def run_task(self, task):
        if self._work is not None:
            self._work(task)
        return task * task

    def commit_task(self, task, result):
        self.committed.append((task, result))


class TestGroupConflictGraph:
    def test_matches_brute_force(self):
        groups = random_groups(40, seed=3)
        graph = build_group_conflict_graph(groups)
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                expected = any(
                    ba.overlaps(bb) for ba in groups[a] for bb in groups[b]
                )
                assert graph.are_conflicting(a, b) == expected, (a, b)

    def test_single_box_groups_match_plain_conflict_graph(self):
        groups = random_groups(30, seed=9, max_boxes=1)
        boxes = [g[0] for g in groups]
        grouped = build_group_conflict_graph(groups)
        plain = build_conflict_graph(boxes)
        assert sorted(grouped.edges()) == sorted(plain.edges())

    def test_bin_size_validation(self):
        with pytest.raises(ValueError):
            build_group_conflict_graph([], bin_size=0)


class TestConflictBatches:
    def test_batches_partition_and_are_independent(self):
        groups = random_groups(50, seed=4)
        conflicts = build_group_conflict_graph(groups)
        batches = extract_conflict_batches(conflicts)
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(50))
        for batch in batches:
            assert conflicts.is_independent_set(batch)

    def test_first_batch_is_root_batch(self):
        groups = random_groups(50, seed=5)
        conflicts = build_group_conflict_graph(groups)
        batches = extract_conflict_batches(conflicts)
        assert batches[0] == build_task_graph(conflicts).root_batch

    def test_matches_occupancy_batching_for_single_boxes(self):
        """Same greedy rounds as Algorithm 1's bitmap implementation."""
        groups = random_groups(40, seed=6, max_boxes=1)
        boxes = [g[0] for g in groups]
        conflicts = build_group_conflict_graph(groups)
        assert extract_conflict_batches(conflicts) == extract_batches(
            boxes, 80, 80
        )


class TestStageRunner:
    def test_policy_validation(self):
        """The runner takes no execution policy; n_workers is validated."""
        with pytest.raises(TypeError):
            StageRunner(policy="ordered")
        with pytest.raises(ValueError):
            StageRunner(n_workers=0)

    def test_runs_and_commits_every_task(self):
        stage = BoxStage(random_groups(30, seed=7))
        report = StageRunner(n_workers=8).run(stage)
        assert sorted(t for t, _ in stage.committed) == list(range(30))
        assert all(result == t * t for t, result in stage.committed)
        assert report.n_tasks == 30
        assert len(report.task_durations) == 30

    def test_empty_stage(self):
        report = StageRunner().run(BoxStage([]))
        assert report.n_tasks == 0
        assert report.taskgraph_makespan == 0.0
        assert report.batch_makespan == 0.0
        assert report.sequential_time == 0.0

    def test_commits_in_topological_order(self):
        groups = random_groups(25, seed=8)
        stage = BoxStage(groups)
        runner = StageRunner()
        schedule = runner.schedule(stage)
        runner.run(stage, schedule=schedule)
        order = [t for t, _ in stage.committed]
        assert order == schedule.task_graph.topological_order()

    def test_makespans_bounded(self):
        stage = BoxStage(random_groups(20, seed=11))
        runner = StageRunner(n_workers=4)
        report = runner.run(stage)
        assert report.taskgraph_makespan <= report.sequential_time + 1e-9
        assert report.batch_makespan <= report.sequential_time + 1e-9
        assert report.scheduler_speedup >= 0

    def test_modelled_makespans_helper(self):
        stage = BoxStage(random_groups(15, seed=12))
        runner = StageRunner()
        schedule = runner.schedule(stage)
        durations = [1.0] * 15
        dag, barrier = modelled_makespans(schedule, durations, 4)
        assert dag <= barrier + 1e-9

    def test_report_makespan_strategy(self):
        stage = BoxStage(random_groups(10, seed=13))
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
    """The graph a finished run leaves behind is dirty-log-clean:
    an incremental cost engine built on it agrees with the full
    oracle, and keeps agreeing across a commit/uncommit cycle."""
    from repro.grid.cost import CostModel, CostQuery

    design = small_design()
    result = GlobalRouter(design, RouterConfig.fastgr_l()).run()
    graph = design.graph
    model = CostModel()
    full = CostQuery(graph, model, engine="full")
    incremental = CostQuery(graph, model, engine="incremental")

    def assert_same_tables():
        for layer in range(graph.n_layers):
            assert np.array_equal(
                full.wire_cost[layer], incremental.wire_cost[layer]
            )
        assert np.array_equal(full.via_cost, incremental.via_cost)

    assert_same_tables()
    # Mutate through the dirty log exactly like a later RRR pass.
    some_route = next(iter(result.routes.values()))
    some_route.uncommit(graph)
    some_route.commit(graph)
    full.rebuild()
    incremental.rebuild()
    assert_same_tables()


class TestPatternChainFreedom:
    """Pattern chunks with non-conflicting boxes run without a chain."""

    CONFIG_KW = dict(max_batch_tasks=8, n_workers=4)

    def _stage(self, config):
        design = small_design()
        return design, PatternStage(design, config, Device(), ZeroCopyArena())

    def test_sibling_chunks_have_no_dependency(self):
        config = RouterConfig.fastgr_l(**self.CONFIG_KW)
        design, stage = self._stage(config)
        nets = sort_nets(list(design.netlist), config.sorting_scheme)
        batches = extract_batches(
            [n.bbox for n in nets], design.graph.nx, design.graph.ny
        )
        assert len(batches[0]) > config.max_batch_tasks  # chunks 0,1 siblings
        schedule = StageRunner(n_workers=4).schedule(stage)
        assert schedule.n_tasks > len(batches)
        assert not schedule.conflicts.are_conflicting(0, 1)
        graph = schedule.task_graph
        assert 1 not in graph.successors[0] and 0 not in graph.successors[1]
        assert 0 in graph.root_batch and 1 in graph.root_batch
