"""Net routing jobs, the batch node table, and wave scheduling.

A *job* is one multi-pin net flowing through the pattern stage: its
Steiner tree and the bottom-up two-pin-net order.  The DP state of every
job of one ``route_jobs`` call lives in one :class:`BatchState`: a node
table with a row per tree node (job-major, row = job's first row + node
index) and ``(N, L)`` arrays the kernels' stacked outputs are written
into by row index.  A non-root row stands for its node *and* for the
two-pin net from that node to its parent.

A *wave* groups, across every job, the two-pin nets whose child subtrees
are already complete — one wave is one kernel launch per pattern family
on the simulated device (Fig. 7: blocks = nets, lanes = layer
combinations; here lanes also span the batch).  Waves are row-index
arrays into the table.

Child order is part of the result's bits: a node's children tables are
summed by ``scatter_add`` in row order, so the child rows of every wave
are listed in ``ordered.children(node)`` order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.grid.geometry import Point
from repro.netlist.net import Net
from repro.tree.ordering import OrderedTree
from repro.tree.steiner import SteinerTree


class PatternMode(enum.Enum):
    """Which pattern family routes a two-pin net."""

    LSHAPE = "L"
    ZSHAPE = "Z"
    HYBRID = "H"


#: Order of the pattern families inside a wave (the ``mode`` column).
MODES = (PatternMode.LSHAPE, PatternMode.ZSHAPE, PatternMode.HYBRID)
_MODE_CODE = {mode: code for code, mode in enumerate(MODES)}


@dataclass
class NetRoutingJob:
    """One multi-pin net moving through the pattern stage.

    ``state``/``index``/``row0`` are set by :func:`build_waves`; the DP
    results are read-only views into that batch state.
    """

    net: Net
    tree: SteinerTree
    ordered: OrderedTree
    state: Optional["BatchState"] = field(default=None, repr=False)
    index: int = 0
    row0: int = 0

    @property
    def total_cost(self) -> float:
        """Cost of the net's best routing (NaN before it is routed)."""
        return float("nan") if self.state is None else float(self.state.total_cost[self.index])

    @property
    def root_interval(self) -> Tuple[int, int]:
        """The via stack ``(lo, hi)`` chosen at the root node."""
        lo, hi = self.state.chosen[self.row0 + self.ordered.root, :2].tolist()
        return (lo, hi)

    @property
    def node_vectors(self) -> Dict[int, np.ndarray]:
        """``{node: c*(node -> parent, lt)}`` for every non-root node."""
        vectors = {}
        for node, parent in enumerate(self.ordered.parent):
            if parent >= 0:
                vectors[node] = self.state.values[self.row0 + node]
                vectors[node].flags.writeable = False
        return vectors


ModeSelector = Callable[[Point, Point], PatternMode]


def constant_mode(mode: PatternMode) -> ModeSelector:
    """Return a selector that routes every two-pin net with ``mode``."""

    def select(_src: Point, _dst: Point) -> PatternMode:
        return mode

    return select


def _rows(lists: List[List[int]]) -> List[np.ndarray]:
    return [np.array(rows, dtype=np.intp) for rows in lists]


class BatchState:
    """Node table, wave schedule and DP arrays of one ``route_jobs`` call.

    ``table`` is ``(8, N)`` ints, one column per tree node: ``job``,
    ``parent`` (row, ``-1`` at a root), the pin layer range ``pin_lo``,
    ``pin_hi`` (``(L, -1)`` without pins — vacuous in
    :func:`~repro.pattern.kernels.combine_children`) and ``ends``, the
    last four: the node's point and its parent's, i.e. ``xs, ys, xt,
    yt`` of its two-pin net (a root is its own target).

    Schedule, filled by :func:`build_waves`: ``waves[h]`` are the
    non-root rows of height ``h`` sorted by mode and ``mode_bounds[h]``
    the offsets that split them by mode (one more than :data:`MODES`);
    ``kids[h]``/``kid_slot[h]`` list the children of those rows and the
    position of each one's parent in ``waves[h]``.  The last entry of
    ``kids``/``kid_slot`` belongs to ``roots``, the root rows of the
    jobs that have two-pin nets (``single_roots``: the others).
    ``levels[d]`` are the rows of depth ``d + 1``.

    DP arrays, written by row index from the kernels' stacked outputs:
    ``values[row, lt]`` is ``c*`` of the row's two-pin net and
    ``path[row, lt]`` its winning pattern ``(ls, lb, bsx, bsy, btx,
    bty)`` — source and middle layer and the two bend points (an L shape
    is the pair ``B, B`` with the middle layer on ``lt``);
    ``stack[row, ls]`` is the via stack ``(lo, hi)`` the combine chose
    at the row's node.  ``chosen[row]`` is what the top-down descent
    picked: ``(lo, hi, lt, ls, lb, bsx, bsy, btx, bty)``; the root phase
    writes the root rows, :func:`~repro.pattern.commit.reconstruct_routes`
    the others.  ``total_cost`` is per job.
    """

    def __init__(self, n_jobs: int, table: np.ndarray, n_layers: int) -> None:
        self.n_jobs = n_jobs  # not the jobs: they point here, a cycle would outlive the call
        self.table = table
        self.job, self.parent = table[:2]
        self.ends = table[4:]
        n_rows = table.shape[1]
        self.values = np.empty((n_rows, n_layers))
        self.path = np.empty((n_rows, n_layers, 6), dtype=np.intp)
        self.stack = np.empty((n_rows, n_layers, 2), dtype=np.intp)
        self.chosen = np.empty((n_rows, 9), dtype=np.intp)
        self.total_cost = np.full(n_jobs, np.nan)
        self.waves: List[np.ndarray] = []
        self.mode_bounds: List[List[int]] = []
        self.kids: List[np.ndarray] = []
        self.kid_slot: List[np.ndarray] = []
        self.levels: List[np.ndarray] = []
        self.roots = self.single_roots = np.empty(0, dtype=np.intp)


def build_waves(
    jobs: List[NetRoutingJob], mode_fn: ModeSelector, n_layers: int
) -> BatchState:
    """Lay ``jobs`` out as one node table and group it into waves.

    Wave ``h`` holds every two-pin net whose child subtree has height
    ``h``; all of a net's children appear in strictly earlier waves, so
    each wave is one batched kernel evaluation.
    """
    table: List[Tuple[int, ...]] = []
    waves: List[List[List[int]]] = []  # [height][mode] -> rows
    levels: List[List[int]] = []  # [depth - 1] -> rows
    roots: List[int] = []
    single_roots: List[int] = []
    wave_of: List[int] = []  # row -> wave that combines at it; -1 at a root
    families: List[Tuple[int, List[int]]] = []  # (row, child rows in sibling order)
    for index, job in enumerate(jobs):
        job.index, job.row0 = index, len(table)
        nodes, parents, depths = job.tree.nodes, job.ordered.parent, job.ordered.depth
        heights = job.ordered.subtree_height()
        for i, node in enumerate(nodes):
            row, parent, layers = job.row0 + i, parents[i], node.pin_layers
            target = nodes[parent].point if parent >= 0 else node.point
            table.append((
                index,
                job.row0 + parent if parent >= 0 else -1,
                min(layers) if layers else n_layers,
                max(layers) if layers else -1,
                node.point.x, node.point.y, target.x, target.y,
            ))
            if parent >= 0:
                while len(waves) <= heights[i]:
                    waves.append([[] for _ in MODES])
                while len(levels) < depths[i]:
                    levels.append([])
                mode = _MODE_CODE[mode_fn(node.point, target)]
                waves[heights[i]][mode].append(row)
                levels[depths[i] - 1].append(row)
                wave_of.append(heights[i])
            else:
                (roots if heights[i] else single_roots).append(row)
                wave_of.append(-1)
            children = [job.row0 + n for n in node.neighbors if parents[n] == i]
            if children:
                families.append((row, children))

    state = BatchState(
        len(jobs), np.ascontiguousarray(np.array(table, dtype=np.intp).reshape(-1, 8).T), n_layers
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


__all__ = [
    "MODES",
    "PatternMode",
    "NetRoutingJob",
    "BatchState",
    "ModeSelector",
    "constant_mode",
    "build_waves",
]
