"""Batch extraction — Algorithm 1 of the paper.

Given sorted nets, repeatedly greedily collect a maximal conflict-free
batch: take the first remaining net, then scan the remainder in order,
admitting every net whose bounding box overlaps no admitted net.  Note
that whole maximal batches pairwise conflict by construction (every
member of a later batch was a leftover of every earlier round), so the
pattern stage cuts each into 64-net pieces and groups the pieces by
:func:`bucket_by_area` into sibling tasks before handing them to the
task-graph scheduler — see :class:`~repro.core.flow.PatternStage`.

The no-conflict test is one AND of big-integer bitsets with one bit per
G-cell: a net's box is a mask, a batch's occupancy the OR of its
members' masks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.grid.geometry import Rect


def bucket_by_area(
    level: Sequence[int],
    areas: Sequence[int],
    max_ratio: float = 4.0,
) -> List[List[int]]:
    """Split one conflict-free level into size-comparable buckets.

    Stacked dispatch pads every member of a fused launch to the
    bucket's maximum slab, and the stacked fixpoint runs until its
    *slowest* member stabilises — so one oversized member stretches
    the pass count (and the padding waste) of every small member
    stacked with it.  Members are sorted by ``(area, task_id)`` and a
    new bucket starts whenever a member's area exceeds ``max_ratio``
    times the area of the bucket's first (smallest) member.

    Both stages share this planner: the maze stage buckets reroute
    levels by search-region area, the pattern stage buckets the pieces
    of one Algorithm-1 batch by their largest net bounding box.
    Buckets inherit the level's conflict-freedom (they are subsets),
    and emitting a level's buckets consecutively keeps the group
    sequence a linear extension of the task graph — the bit-parity
    precondition of the runner's fused dispatch.  Deterministic: pure function of
    ``(level, areas, max_ratio)``.
    """
    if max_ratio < 1.0:
        raise ValueError("max_ratio must be >= 1.0")
    order = sorted(level, key=lambda task: (areas[task], task))
    buckets: List[List[int]] = []
    current: List[int] = []
    base_area = 0
    for task in order:
        area = int(areas[task])
        if current and area > max_ratio * max(base_area, 1):
            buckets.append(current)
            current = []
        if not current:
            base_area = area
        current.append(task)
    if current:
        buckets.append(current)
    return buckets


def extract_batches(
    boxes: Sequence[Rect], nx: int, ny: int
) -> List[List[int]]:
    """Partition task indices into ordered conflict-free batches.

    ``boxes`` must already be in the desired net order (the sorting
    scheme is applied by the caller); indices inside each batch keep
    that order.  Every returned batch is a maximal independent set with
    respect to the tasks remaining when it was started, matching the
    greedy scan of Algorithm 1.  Boxes are clipped to the ``nx`` x
    ``ny`` grid; one wholly off it covers no cell and conflicts with
    nothing.
    """
    # Bit x * ny + y is G-cell (x, y).  A box is its column of rows
    # repeated once per column: ``col_bits * repunit`` has no carries.
    repunits: Dict[int, int] = {}
    masks = []
    for box in boxes:
        xlo, xhi = max(box.xlo, 0), min(box.xhi, nx - 1)
        ylo, yhi = max(box.ylo, 0), min(box.yhi, ny - 1)
        width = xhi - xlo + 1
        if width <= 0 or yhi < ylo:  # wholly off the grid
            masks.append(0)
            continue
        if width not in repunits:
            repunits[width] = ((1 << width * ny) - 1) // ((1 << ny) - 1)
        col_bits = ((1 << yhi - ylo + 1) - 1) << ylo
        masks.append(col_bits * repunits[width] << xlo * ny)
    remaining = list(range(len(boxes)))
    batches: List[List[int]] = []
    while remaining:
        occupancy = 0
        batch: List[int] = []
        leftovers: List[int] = []
        for index in remaining:
            mask = masks[index]
            if occupancy & mask:
                leftovers.append(index)
            else:
                occupancy |= mask
                batch.append(index)
        batches.append(batch)
        remaining = leftovers
    return batches


__all__ = ["bucket_by_area", "extract_batches"]
