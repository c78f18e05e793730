"""Tests for the ordered task graph (Fig. 6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.conflict import ConflictGraph
from repro.sched.taskgraph import build_task_graph, extract_root_batch


def graph_from_edges(n, edges):
    graph = ConflictGraph(n)
    for a, b in edges:
        graph.add_conflict(a, b)
    return graph


class TestRootBatch:
    def test_independent_and_greedy(self):
        conflicts = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        root = extract_root_batch(conflicts)
        assert root == [0, 2, 3]
        assert conflicts.is_independent_set(root)

    def test_no_conflicts_everything_in_root(self):
        conflicts = ConflictGraph(4)
        assert extract_root_batch(conflicts) == [0, 1, 2, 3]

    def test_complete_graph_single_root(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        conflicts = graph_from_edges(4, edges)
        assert extract_root_batch(conflicts) == [0]


class TestBuildTaskGraph:
    def test_paper_figure6_shape(self):
        """Seven tasks as in Fig. 6: edges orient root->rest, then by ID."""
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
        conflicts = graph_from_edges(7, edges)
        graph = build_task_graph(conflicts)
        order = graph.topological_order()
        assert sorted(order) == list(range(7))
        position = {task: i for i, task in enumerate(order)}
        in_root = set(graph.root_batch)
        for a, b in conflicts.edges():
            if a in in_root:
                assert position[a] < position[b]
            elif b in in_root:
                assert position[b] < position[a]
            else:
                lo, hi = min(a, b), max(a, b)
                assert position[lo] < position[hi]

    def test_acyclic_on_complete_graph(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        graph = build_task_graph(graph_from_edges(6, edges))
        order = graph.topological_order()
        assert sorted(order) == list(range(6))

    def test_every_conflict_becomes_one_edge(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4)]
        graph = build_task_graph(graph_from_edges(5, edges))
        n_edges = sum(len(s) for s in graph.successors)
        assert n_edges == len(edges)

    def test_empty_graph(self):
        graph = build_task_graph(ConflictGraph(0))
        assert graph.topological_order() == []

    def test_conflict_chain_becomes_two_level_comb(self):
        """The root batch {0, 2} flattens a conflict chain: depth 2."""
        conflicts = graph_from_edges(3, [(0, 1), (1, 2)])
        graph = build_task_graph(conflicts)
        assert graph.root_batch == [0, 2]
        assert graph.critical_path_length([1.0, 1.0, 1.0]) == pytest.approx(2.0)

    def test_critical_path_explicit_chain(self):
        from repro.sched.taskgraph import TaskGraph

        graph = TaskGraph(3, [0], [[1], [2], []], [0, 1, 1])
        assert graph.critical_path_length([1.0, 1.0, 1.0]) == pytest.approx(3.0)

    def test_critical_path_parallel_tasks(self):
        graph = build_task_graph(ConflictGraph(4))
        assert graph.critical_path_length([1.0, 5.0, 2.0, 3.0]) == pytest.approx(5.0)

    @given(
        n=st.integers(1, 12),
        edge_seed=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_always_acyclic_and_complete(self, n, edge_seed):
        conflicts = ConflictGraph(n)
        for a, b in edge_seed:
            if a < n and b < n and a != b:
                conflicts.add_conflict(a, b)
        graph = build_task_graph(conflicts)
        order = graph.topological_order()  # raises on a cycle
        assert sorted(order) == list(range(n))
        # Precedence safety: every conflicting pair is ordered.
        position = {task: i for i, task in enumerate(order)}
        for a, b in conflicts.edges():
            assert position[a] != position[b]


class TestLevels:
    """Dependency-depth levels: the batched maze dispatch unit."""

    def test_empty_graph(self):
        assert build_task_graph(ConflictGraph(0)).levels() == []

    def test_no_conflicts_single_level(self):
        graph = build_task_graph(ConflictGraph(4))
        assert graph.levels() == [[0, 1, 2, 3]]

    def test_chain_levels(self):
        conflicts = graph_from_edges(3, [(0, 1), (1, 2)])
        graph = build_task_graph(conflicts)
        assert graph.levels() == [[0, 2], [1]]

    @given(
        n=st.integers(1, 12),
        edge_seed=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_conflict_free_linear_extension(self, n, edge_seed):
        conflicts = ConflictGraph(n)
        for a, b in edge_seed:
            if a < n and b < n and a != b:
                conflicts.add_conflict(a, b)
        graph = build_task_graph(conflicts)
        levels = graph.levels()
        # Partition of all tasks.
        flat = [task for level in levels for task in level]
        assert sorted(flat) == list(range(n))
        # Every level is conflict-free.
        for level in levels:
            assert conflicts.is_independent_set(level)
        # Level order is a linear extension: every edge crosses levels
        # forward, so committing level-by-level (any order inside)
        # reproduces the per-task commit order on conflicting pairs.
        depth_of = {
            task: depth
            for depth, level in enumerate(levels)
            for task in level
        }
        for source in range(n):
            for succ in graph.successors[source]:
                assert depth_of[source] < depth_of[succ]
