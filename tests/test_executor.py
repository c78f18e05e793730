"""Tests for the threaded release-rule oracle and the makespan models."""

from __future__ import annotations

import threading
import time

import pytest

from repro.sched.executor import (
    simulate_batch_barrier_makespan,
    simulate_makespan,
)
from repro.sched.taskgraph import TaskGraph
from tests.sched_oracle import (
    ConflictGraph,
    TaskGraphExecutor,
    critical_path_length,
    task_graph_of,
)


def chain_graph(n):
    """A true dependency chain 0 -> 1 -> ... -> n-1 (explicit DAG).

    Note the scheduler would *not* produce this from a conflict chain —
    its root batch turns a conflict chain into a two-level comb; chains
    here exercise the executor/makespan machinery directly.
    """
    successors = [[i + 1] if i + 1 < n else [] for i in range(n)]
    n_predecessors = [0] + [1] * (n - 1) if n else []
    return TaskGraph(n, [0] if n else [], successors, n_predecessors)


def independent_graph(n):
    return task_graph_of(ConflictGraph(n))


class TestExecutor:
    def test_runs_every_task_once(self):
        graph = independent_graph(10)
        ran = []
        lock = threading.Lock()

        def work(task):
            with lock:
                ran.append(task)

        TaskGraphExecutor(n_workers=4).run(graph, work)
        assert sorted(ran) == list(range(10))

    def test_respects_precedence(self):
        graph = chain_graph(6)
        finished = []
        lock = threading.Lock()

        def work(task):
            with lock:
                finished.append(task)

        TaskGraphExecutor(n_workers=4).run(graph, work)
        assert finished == list(range(6))  # chain forces exact order

    def test_conflicting_tasks_never_overlap(self):
        conflicts = ConflictGraph(8)
        for i in range(0, 8, 2):
            conflicts.add_conflict(i, i + 1)
        graph = task_graph_of(conflicts)
        active = set()
        lock = threading.Lock()
        violations = []

        def work(task):
            partner = task + 1 if task % 2 == 0 else task - 1
            with lock:
                if partner in active:
                    violations.append(task)
                active.add(task)
            with lock:
                active.discard(task)

        TaskGraphExecutor(n_workers=8).run(graph, work)
        assert violations == []

    def test_propagates_exceptions(self):
        graph = independent_graph(4)

        def work(task):
            if task == 2:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            TaskGraphExecutor(n_workers=2).run(graph, work)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            TaskGraphExecutor(n_workers=0)

    def test_on_complete_callback(self):
        graph = independent_graph(3)
        completed = []
        TaskGraphExecutor(n_workers=2).run(
            graph, lambda t: None, on_complete=completed.append
        )
        assert sorted(completed) == [0, 1, 2]


class TestExecutorFailurePaths:
    def test_cyclic_graph_raises_instead_of_hanging(self):
        graph = TaskGraph(2, [], [[1], [0]], [1, 1])
        with pytest.raises(RuntimeError, match="deadlock"):
            TaskGraphExecutor(n_workers=2).run(graph, lambda t: None)

    def test_cycle_behind_valid_prefix(self):
        # 0 -> 1 <-> 2: task 0 completes, then the cycle stalls the pool.
        graph = TaskGraph(3, [0], [[1], [2], [1]], [0, 2, 1])
        ran = []
        with pytest.raises(RuntimeError, match="deadlock"):
            TaskGraphExecutor(n_workers=4).run(graph, ran.append)
        assert ran == [0]

    def test_worker_exception_stops_pool_promptly(self):
        """Every worker must exit after a failure, not wait forever."""
        conflicts = ConflictGraph(20)
        for task in range(1, 20):
            conflicts.add_conflict(0, task)  # star: all wait on task 0
        graph = task_graph_of(conflicts)

        def work(task):
            raise ValueError(f"boom-{task}")

        with pytest.raises(ValueError, match="boom-0"):
            TaskGraphExecutor(n_workers=8).run(graph, work)

    def test_on_complete_exception_propagates(self):
        graph = chain_graph(3)
        ran = []

        def on_complete(task):
            raise KeyError("commit failed")

        with pytest.raises(KeyError, match="commit failed"):
            TaskGraphExecutor(n_workers=2).run(graph, ran.append, on_complete)
        # The failed commit's successor must never start.
        assert ran == [0]

    def test_exception_after_partial_progress(self):
        graph = chain_graph(5)

        def work(task):
            if task == 3:
                raise RuntimeError("late boom")

        with pytest.raises(RuntimeError, match="late boom"):
            TaskGraphExecutor(n_workers=4).run(graph, work)

    def test_conflicting_tasks_never_overlap_stress(self):
        """>=8 workers and a dense random conflict graph with real
        sleeps: no conflicting pair may ever be active together."""
        import random

        rng = random.Random(1234)
        n = 48
        conflicts = ConflictGraph(n)
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.15:
                    conflicts.add_conflict(a, b)
        graph = task_graph_of(conflicts)

        active = set()
        lock = threading.Lock()
        violations = []

        def work(task):
            with lock:
                for other in active:
                    if conflicts.are_conflicting(task, other):
                        violations.append((task, other))
                active.add(task)
            time.sleep(rng.random() * 0.003)
            with lock:
                active.discard(task)

        events = []
        TaskGraphExecutor(n_workers=12).run(graph, work, events=events)
        assert violations == []
        # The recorded timeline agrees with the instrumented check.
        start = {}
        finish = {}
        for tick, (kind, task) in enumerate(events):
            (start if kind == "start" else finish)[task] = tick
        for a, b in conflicts.edges():
            overlapped = start[a] < finish[b] and start[b] < finish[a]
            assert not overlapped, (a, b)

    def test_events_timeline_consistent(self):
        graph = chain_graph(4)
        events = []
        TaskGraphExecutor(n_workers=4).run(graph, lambda t: None, events=events)
        assert len(events) == 8
        # A chain runs strictly sequentially: start/finish alternate.
        assert events == [
            (kind, task) for task in range(4) for kind in ("start", "finish")
        ]


class TestSimulatedMakespan:
    def test_independent_tasks_perfect_scaling(self):
        graph = independent_graph(8)
        durations = [1.0] * 8
        assert simulate_makespan(graph, durations, 8) == pytest.approx(1.0)
        assert simulate_makespan(graph, durations, 4) == pytest.approx(2.0)
        assert simulate_makespan(graph, durations, 1) == pytest.approx(8.0)

    def test_chain_is_sequential(self):
        graph = chain_graph(5)
        assert simulate_makespan(graph, [1.0] * 5, 8) == pytest.approx(5.0)

    def test_never_below_critical_path(self):
        conflicts = ConflictGraph(6)
        conflicts.add_conflict(0, 3)
        conflicts.add_conflict(3, 5)
        graph = task_graph_of(conflicts)
        durations = [2.0, 1.0, 1.0, 3.0, 1.0, 4.0]
        span = simulate_makespan(graph, durations, 16)
        assert span >= critical_path_length(graph, durations) - 1e-9

    def test_never_above_sequential(self):
        conflicts = ConflictGraph(5)
        conflicts.add_conflict(0, 1)
        conflicts.add_conflict(2, 3)
        graph = task_graph_of(conflicts)
        durations = [1.0, 2.0, 3.0, 1.0, 2.0]
        assert simulate_makespan(graph, durations, 2) <= sum(durations) + 1e-9

    def test_empty_graph(self):
        assert simulate_makespan(independent_graph(0), [], 4) == 0.0

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            simulate_makespan(independent_graph(1), [1.0], 0)


class TestBatchBarrierMakespan:
    def test_single_batch_lpt(self):
        span = simulate_batch_barrier_makespan([[0, 1, 2, 3]], [4.0, 3.0, 2.0, 1.0], 2)
        assert span == pytest.approx(5.0)

    def test_barrier_forces_sum_of_batch_maxima(self):
        batches = [[0], [1], [2]]
        span = simulate_batch_barrier_makespan(batches, [1.0, 2.0, 3.0], 8)
        assert span == pytest.approx(6.0)

    def test_batch_barrier_never_beats_taskgraph(self):
        """With the same conflicts, the DAG schedule dominates."""
        conflicts = ConflictGraph(6)
        conflicts.add_conflict(0, 1)
        conflicts.add_conflict(2, 3)
        conflicts.add_conflict(4, 5)
        graph = task_graph_of(conflicts)
        durations = [5.0, 1.0, 4.0, 2.0, 3.0, 3.0]
        batches = [[0, 2, 4], [1, 3, 5]]
        dag = simulate_makespan(graph, durations, 3)
        barrier = simulate_batch_barrier_makespan(batches, durations, 3)
        assert dag <= barrier + 1e-9

    def test_empty_batches(self):
        assert simulate_batch_barrier_makespan([], [], 4) == 0.0
