"""The per-net planning oracle of the pattern stage.

:func:`repro.pattern.plan.plan_level` plans a fused level with
whole-batch array ops: nets with at most three distinct pin G-cells get
their tree in closed form, the rest go through
:meth:`~repro.pattern.batch.BatchPatternRouter.make_job`, and one array
pass lays every net out as a :class:`~repro.pattern.twopin.BatchState`.
Its contract is that the state equals what planning every net on its own
gives: ``make_job`` (Steiner tree, edge shifting, ``order_tree``) for
*every* net, then :func:`build_waves`, the per-net layout loop below,
which collects each two-pin net's read lines into Python sets.

:func:`per_net_planning` makes every pattern router built inside it plan
this way, so a whole flow can be routed once per planner and compared::

    with per_net_planning():
        oracle = GlobalRouter(load_benchmark("18test5", scale=0.05)).run()

Benchmarks import this module by putting the repository root on
``sys.path``.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate
from typing import List, Tuple
from unittest import mock

import numpy as np

from repro.grid.cost import Footprint
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.twopin import MODES, BatchState, ModeSelector, NetRoutingJob


def lshape_lines(ends: Tuple[int, int, int, int], ny: int, rows, columns, pillars) -> None:
    """Add what pricing one L two-pin net ``xs, ys, xt, yt`` reads to
    three sets: rows ``ys, yt``, columns ``xs, xt``, and the via pillars
    at both ends and both bends."""
    xs, ys, xt, yt = ends
    rows.update((ys, yt))
    columns.update((xs, xt))
    pillars.update((xs * ny + ys, xt * ny + yt, xt * ny + ys, xs * ny + yt))


def candidate_lines(ends: Tuple[int, int, int, int], ny: int, rows, columns, pillars) -> None:
    """Add what pricing one Z or hybrid two-pin net reads: every row and
    column of its bounding box and the pillars on the box's boundary."""
    xs, ys, xt, yt = ends
    xlo, xhi = (xs, xt) if xs < xt else (xt, xs)
    ylo, yhi = (ys, yt) if ys < yt else (yt, ys)
    rows.update(range(ylo, yhi + 1))
    columns.update(range(xlo, xhi + 1))
    for y in (ys, yt):
        pillars.update(range(xlo * ny + y, xhi * ny + y + 1, ny))
    for x in (xs, xt):
        pillars.update(range(x * ny + ylo, x * ny + yhi + 1))


#: Per family, in ``twopin.MODES`` order.
_LINES = (lshape_lines, candidate_lines, candidate_lines)


def _rows(lists: List[List[int]]) -> List[np.ndarray]:
    return [np.array(rows, dtype=np.intp) for rows in lists]


def build_waves(
    jobs: List[NetRoutingJob], mode_fn: ModeSelector, n_layers: int, ny: int, first_box: int = 0
) -> BatchState:
    """Lay ``jobs`` out as one node table and group it into waves, one
    node at a time (see :class:`~repro.pattern.twopin.BatchState`)."""
    table: List[Tuple[int, ...]] = []
    waves: List[List[List[int]]] = []  # [height][mode] -> rows
    levels: List[List[int]] = []  # [depth - 1] -> rows
    roots: List[int] = []
    single_roots: List[int] = []
    wave_of: List[int] = []  # row -> wave that combines at it; -1 at a root
    families: List[Tuple[int, List[int]]] = []  # (row, child rows in sibling order)
    reads: List[List[int]] = [[] for _ in range(6)]
    for index, job in enumerate(jobs):
        job.index, job.row0 = index, len(table)
        nodes, parents, depths = job.tree.nodes, job.ordered.parent, job.ordered.depth
        heights = job.ordered.subtree_height()
        job_rows, job_columns, job_pillars = set(), set(), set()
        for i, node in enumerate(nodes):
            row, parent, layers = job.row0 + i, parents[i], node.pin_layers
            target = nodes[parent].point if parent >= 0 else node.point
            ends = (node.point.x, node.point.y, target.x, target.y)
            table.append((
                index,
                job.row0 + parent if parent >= 0 else -1,
                min(layers) if layers else n_layers,
                max(layers) if layers else -1,
                *ends,
            ))
            if parent >= 0:
                while len(waves) <= heights[i]:
                    waves.append([[] for _ in range(3)])
                while len(levels) < depths[i]:
                    levels.append([])
                mode = MODES.index(mode_fn(node.point, target))
                waves[heights[i]][mode].append(row)
                levels[depths[i] - 1].append(row)
                wave_of.append(heights[i])
                _LINES[mode](ends, ny, job_rows, job_columns, job_pillars)
            else:
                (roots if heights[i] else single_roots).append(row)
                wave_of.append(-1)
                job_pillars.add(ends[0] * ny + ends[1])
            children = [job.row0 + n for n in node.neighbors if parents[n] == i]
            if children:
                families.append((row, children))
        box = first_box + index
        reads[0] += [box] * len(job_rows)
        reads[1] += job_rows
        reads[2] += [box] * len(job_columns)
        reads[3] += job_columns
        reads[4] += [box] * len(job_pillars)
        reads[5] += job_pillars

    state = BatchState(
        len(jobs), np.ascontiguousarray(np.array(table, dtype=np.intp).reshape(-1, 8).T), n_layers
    )
    state.reads = Footprint(
        np.array(reads[:2], dtype=np.intp),
        np.array(reads[2:4], dtype=np.intp),
        np.array(reads[4:], dtype=np.intp),
    )
    slot = [0] * len(table)  # row -> position in its wave (or in roots)
    for by_mode in waves:
        rows = [row for group in by_mode for row in group]
        for position, row in enumerate(rows):
            slot[row] = position
        state.waves.append(np.array(rows, dtype=np.intp))
        state.mode_bounds.append([0, *accumulate(len(group) for group in by_mode)])
    for position, row in enumerate(roots):
        slot[row] = position
    kids: List[List[int]] = [[] for _ in range(len(waves) + 1)]
    kid_slot: List[List[int]] = [[] for _ in range(len(waves) + 1)]
    for row, children in families:
        kids[wave_of[row]].extend(children)
        kid_slot[wave_of[row]].extend([slot[row]] * len(children))
    state.kids, state.kid_slot, state.levels = _rows(kids), _rows(kid_slot), _rows(levels)
    state.roots, state.single_roots = _rows([roots, single_roots])
    for job in jobs:
        job.state = state
    return state


def plan_per_net(router: BatchPatternRouter, nets, mode_fn, first_box: int = 0) -> BatchState:
    """Plan ``nets`` the per-net way: ``make_job`` for each, then
    :func:`build_waves`."""
    graph = router.graph
    jobs = [router.make_job(net) for net in nets]
    return build_waves(jobs, mode_fn, graph.n_layers, graph.ny, first_box)


def _plan_nets(self, nets, mode_fn, cells=None) -> List[BatchState]:
    return [plan_per_net(self, nets, mode_fn)]


@contextmanager
def per_net_planning():
    """Route every fused level through :func:`plan_per_net`."""
    with mock.patch.object(BatchPatternRouter, "plan_nets", _plan_nets):
        yield


def footprint_lines(reads: Footprint):
    """A footprint as three sets of ``(box, line)`` pairs."""
    return tuple(set(zip(*family.tolist())) for family in reads)


def assert_states_equal(mine: BatchState, oracle: BatchState) -> None:
    """Raise ``AssertionError`` unless two planned states agree on
    everything the kernels and the backtrace read."""
    assert mine.n_jobs == oracle.n_jobs
    assert mine.table.dtype == oracle.table.dtype
    assert np.array_equal(mine.table, oracle.table)
    for name in ("waves", "kids", "kid_slot", "levels"):
        a, b = getattr(mine, name), getattr(oracle, name)
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert mine.mode_bounds == oracle.mode_bounds
    assert np.array_equal(mine.roots, oracle.roots)
    assert np.array_equal(mine.single_roots, oracle.single_roots)
    assert footprint_lines(mine.reads) == footprint_lines(oracle.reads)
