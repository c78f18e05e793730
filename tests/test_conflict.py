"""Tests for the set-based conflict graph oracle and its construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.geometry import Rect
from tests.sched_oracle import ConflictGraph, build_conflict_graph


def rects_strategy(n_max=20, span=60):
    coord = st.integers(0, span)
    return st.lists(
        st.tuples(coord, coord, st.integers(0, 10), st.integers(0, 10)).map(
            lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3])
        ),
        min_size=0,
        max_size=n_max,
    )


class TestConflictGraph:
    def test_add_and_query(self):
        graph = ConflictGraph(3)
        graph.add_conflict(0, 2)
        assert graph.are_conflicting(0, 2)
        assert graph.are_conflicting(2, 0)
        assert not graph.are_conflicting(0, 1)
        assert graph.n_conflicts() == 1

    def test_self_conflict_rejected(self):
        with pytest.raises(ValueError):
            ConflictGraph(2).add_conflict(1, 1)

    def test_edges_listed_once(self):
        graph = ConflictGraph(4)
        graph.add_conflict(0, 1)
        graph.add_conflict(1, 2)
        assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_independent_set_check(self):
        graph = ConflictGraph(4)
        graph.add_conflict(0, 1)
        assert graph.is_independent_set([0, 2, 3])
        assert not graph.is_independent_set([0, 1])


class TestBuild:
    def test_simple_overlap(self):
        boxes = [Rect(0, 0, 4, 4), Rect(3, 3, 6, 6), Rect(10, 10, 12, 12)]
        graph = build_conflict_graph(boxes)
        assert graph.are_conflicting(0, 1)
        assert not graph.are_conflicting(0, 2)
        assert not graph.are_conflicting(1, 2)

    def test_touching_boxes_conflict(self):
        boxes = [Rect(0, 0, 2, 2), Rect(2, 2, 4, 4)]
        assert build_conflict_graph(boxes).are_conflicting(0, 1)

    def test_bin_size_does_not_change_result(self):
        boxes = [
            Rect(0, 0, 30, 3),
            Rect(10, 2, 14, 20),
            Rect(25, 25, 40, 40),
            Rect(0, 18, 11, 22),
        ]
        for bin_size in (1, 4, 16, 100):
            graph = build_conflict_graph(boxes, bin_size=bin_size)
            assert sorted(graph.edges()) == [(0, 1), (1, 3)]

    def test_invalid_bin_size(self):
        with pytest.raises(ValueError):
            build_conflict_graph([], bin_size=0)

    @given(boxes=rects_strategy())
    @settings(max_examples=50, deadline=None)
    def test_property_matches_bruteforce(self, boxes):
        graph = build_conflict_graph(boxes, bin_size=7)
        expected = {
            (i, j)
            for i in range(len(boxes))
            for j in range(i + 1, len(boxes))
            if boxes[i].overlaps(boxes[j])
        }
        assert set(graph.edges()) == expected
