"""Tests for Algorithm 1 batch extraction and level size-bucketing.

:func:`extract_batches_oracle` is the boolean-bitmap scan the big-int
bitsets replaced, kept here as their reference (with the clip of boxes
wholly off the low edge fixed: they cover no cell).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.grid.geometry import Rect
from repro.sched.batching import MAX_AREA_RATIO, bucket_by_area, extract_batches
from tests.sched_oracle import build_conflict_graph


def extract_batches_oracle(boxes, nx, ny):
    """Algorithm 1 on a ``(nx, ny)`` occupancy bitmap, one window per box."""
    bounds = [
        (max(b.xlo, 0), min(b.xhi, nx - 1) + 1, max(b.ylo, 0), min(b.yhi, ny - 1) + 1)
        for b in boxes
    ]
    remaining = list(range(len(boxes)))
    batches = []
    occupancy = np.zeros((nx, ny), dtype=bool)
    while remaining:
        occupancy[:] = False
        batch, leftovers = [], []
        for index in remaining:
            xlo, xhi, ylo, yhi = bounds[index]
            # A box off the grid covers no cell.
            window = occupancy[xlo:xhi, ylo:yhi] if xlo < xhi and ylo < yhi else None
            if window is not None and window.any():
                leftovers.append(index)
            else:
                if window is not None:
                    window[:] = True
                batch.append(index)
        batches.append(batch)
        remaining = leftovers
    return batches


@st.composite
def grid_and_boxes(draw):
    """A random grid and boxes that may stick out of it, lie wholly off
    it on any side, or be a single row, column or cell."""
    nx, ny = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    xs, ys = st.integers(-6, nx + 5), st.integers(-6, ny + 5)
    box = st.tuples(xs, xs, ys, ys).map(
        lambda t: Rect(min(t[0], t[1]), min(t[2], t[3]),
                       max(t[0], t[1]), max(t[2], t[3]))
    )
    return nx, ny, draw(st.lists(box, max_size=30))


def boxes_strategy(span=40):
    coord = st.integers(0, span)
    return st.lists(
        st.tuples(coord, coord, st.integers(0, 8), st.integers(0, 8)).map(
            lambda t: Rect(t[0], t[1], min(t[0] + t[2], 49), min(t[1] + t[3], 49))
        ),
        min_size=0,
        max_size=25,
    )


class TestExtractBatches:
    def test_disjoint_boxes_single_batch(self):
        boxes = [Rect(0, 0, 2, 2), Rect(5, 5, 7, 7), Rect(10, 0, 12, 2)]
        batches = extract_batches(boxes, 16, 16)
        assert batches == [[0, 1, 2]]

    def test_identical_boxes_fully_serialised(self):
        boxes = [Rect(1, 1, 3, 3)] * 4
        batches = extract_batches(boxes, 8, 8)
        assert batches == [[0], [1], [2], [3]]

    def test_every_task_appears_exactly_once(self):
        boxes = [Rect(i % 5, i % 3, i % 5 + 3, i % 3 + 3) for i in range(12)]
        batches = extract_batches(boxes, 10, 10)
        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(12))

    def test_order_within_batch_preserved(self):
        boxes = [Rect(0, 0, 1, 1), Rect(5, 5, 6, 6), Rect(9, 9, 10, 10)]
        batches = extract_batches(boxes, 12, 12)
        assert batches[0] == sorted(batches[0])

    def test_empty_input(self):
        assert extract_batches([], 8, 8) == []

    def test_greedy_takes_first_remaining(self):
        # First net of every batch is the lowest remaining index.
        boxes = [Rect(0, 0, 4, 4)] * 3 + [Rect(6, 6, 8, 8)]
        batches = extract_batches(boxes, 12, 12)
        assert batches[0][0] == 0
        assert batches[1][0] == 1

    @given(boxes=boxes_strategy())
    @settings(max_examples=50, deadline=None)
    def test_property_batches_are_independent_and_maximal(self, boxes):
        batches = extract_batches(boxes, 50, 50)
        conflict = build_conflict_graph(boxes)
        flat = [i for batch in batches for i in batch]
        assert sorted(flat) == list(range(len(boxes)))
        remaining = set(range(len(boxes)))
        for batch in batches:
            # Independence: no two members conflict.
            assert conflict.is_independent_set(batch)
            # Maximality: every remaining task outside the batch conflicts
            # with some member (Algorithm 1 admits all compatible nets).
            chosen = set(batch)
            for task in remaining - chosen:
                assert any(conflict.are_conflicting(task, b) for b in batch)
            remaining -= chosen

    def test_off_grid_box_conflicts_with_nothing(self):
        """A box wholly below the low edge covers no cell: clipped to a
        negative slice end it would wrap onto columns ``0..nx-2``."""
        boxes = [Rect(-5, 0, -2, 3), Rect(0, 0, 2, 2), Rect(1, -4, 3, -2),
                 Rect(20, 0, 22, 2), Rect(1, 1, 1, 1)]
        assert extract_batches(boxes, 8, 8) == [[0, 1, 2, 3], [4]]

    @given(case=grid_and_boxes())
    @settings(max_examples=200, deadline=None)
    @example(case=(8, 8, [Rect(-5, -5, -2, -2), Rect(0, 0, 7, 7)]))
    @example(case=(1, 1, [Rect(0, 0, 0, 0), Rect(-1, -1, 1, 1)]))
    def test_matches_the_bitmap_oracle(self, case):
        nx, ny, boxes = case
        assert extract_batches(boxes, nx, ny) == extract_batches_oracle(boxes, nx, ny)


class TestBucketByArea:
    def test_uniform_level_single_bucket_sorted(self):
        areas = [30, 10, 20]
        assert bucket_by_area([0, 1, 2], areas) == [[1, 2, 0]]

    def test_splits_when_ratio_exceeded(self):
        # 4x the smallest member's area is the default split point.
        areas = [4, 16, 17, 400]
        assert bucket_by_area([0, 1, 2, 3], areas) == [[0, 1], [2], [3]]

    def test_base_rebinds_per_bucket(self):
        # Each new bucket compares against ITS first (smallest) member,
        # not the level minimum: 100 <= 4*25 keeps the pair together.
        areas = [5, 25, 100]
        assert bucket_by_area([0, 1, 2], areas) == [[0], [1, 2]]

    def test_zero_area_members(self):
        # Degenerate boxes (single-pin / stacked-via nets) bucket with
        # anything up to 4x max(base, 1).
        areas = [0, 0, 4, 5]
        assert bucket_by_area([0, 1, 2, 3], areas) == [[0, 1, 2], [3]]

    def test_ties_break_by_task_id(self):
        areas = [7, 7, 7]
        assert bucket_by_area([2, 0, 1], areas) == [[0, 1, 2]]

    def test_empty_level(self):
        assert bucket_by_area([], []) == []

    @given(areas=st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_property_partition_and_bounded_spread(self, areas):
        level = list(range(len(areas)))
        buckets = bucket_by_area(level, areas)
        flat = [t for bucket in buckets for t in bucket]
        # A permutation of the level...
        assert sorted(flat) == level
        # ...emitted in ascending-area order overall...
        assert [areas[t] for t in flat] == sorted(areas)
        # ...with every bucket's spread bounded by the ratio.
        for bucket in buckets:
            base = max(areas[bucket[0]], 1)
            assert all(areas[t] <= MAX_AREA_RATIO * base for t in bucket)
