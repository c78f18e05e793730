"""Net routing jobs, pattern selectors and the batch node table.

A *job* is one multi-pin net flowing through the pattern stage: its
Steiner tree and the bottom-up two-pin-net order.  The DP state of every
net of one ``route_jobs`` call lives in one :class:`BatchState`: a node
table with a row per tree node (net-major, row = net's first row + node
index) and ``(N, L)`` arrays the kernels' stacked outputs are written
into by row index.  A non-root row stands for its node *and* for the
two-pin net from that node to its parent.

A *wave* groups, across every net, the two-pin nets whose child subtrees
are already complete — one wave is one kernel launch per pattern family
on the simulated device (Fig. 7: blocks = nets, lanes = layer
combinations; here lanes also span the batch).  Waves are row-index
arrays into the table.  :mod:`repro.pattern.plan` builds the table and
the waves of a whole batch with array ops.

Child order is part of the result's bits: a node's children tables are
summed by ``scatter_add`` in row order, so the child rows of every wave
are listed in ``ordered.children(node)`` order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.grid.cost import Footprint
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

    ``state``/``index``/``row0`` are set by the planner; the DP
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


class HpwlSelector:
    """Pattern family by a two-pin net's HPWL: ``inside`` for ``lo <=
    HPWL <= hi`` (no upper bound when ``hi`` is ``None``), L-shape
    elsewhere.

    A :data:`ModeSelector`; :meth:`codes` prices a whole batch of
    two-pin nets at once.
    """

    def __init__(self, inside: PatternMode, lo: int = 0, hi: Optional[int] = None) -> None:
        self.inside, self.lo, self.hi = inside, lo, hi

    def _inside(self, hpwl):
        inside = hpwl >= self.lo
        return inside if self.hi is None else inside & (hpwl <= self.hi)

    def __call__(self, src: Point, dst: Point) -> PatternMode:
        hpwl = abs(src.x - dst.x) + abs(src.y - dst.y)
        return self.inside if self._inside(hpwl) else PatternMode.LSHAPE

    def codes(self, ends: np.ndarray) -> np.ndarray:
        """The :data:`MODES` index of each two-pin net ``xs, ys, xt, yt``
        of ``ends (4, B)``."""
        if self.lo <= 0 and self.hi is None:
            return np.full(ends.shape[1], _MODE_CODE[self.inside])
        xs, ys, xt, yt = ends
        inside = self._inside(np.abs(xs - xt) + np.abs(ys - yt))
        return np.where(inside, _MODE_CODE[self.inside], 0)


def constant_mode(mode: PatternMode) -> ModeSelector:
    """Return a selector that routes every two-pin net with ``mode``."""
    return HpwlSelector(mode)


def mode_codes(mode_fn: ModeSelector, ends: np.ndarray) -> np.ndarray:
    """The :data:`MODES` index ``mode_fn`` picks for each two-pin net of
    ``ends (4, B)``: one array call for a selector with ``codes``, one
    call per net for any other."""
    codes = getattr(mode_fn, "codes", None)
    if codes is not None:
        return codes(ends)
    return np.array(
        [_MODE_CODE[mode_fn(Point(*src), Point(*dst))]
         for src, dst in zip(ends[:2].T.tolist(), ends[2:].T.tolist())],
        dtype=np.intp,
    )


class BatchState:
    """Node table, wave schedule and DP arrays of one ``route_jobs`` call.

    ``table`` is ``(8, N)`` ints, one column per tree node: ``job``,
    ``parent`` (row, ``-1`` at a root), the pin layer range ``pin_lo``,
    ``pin_hi`` (``(L, -1)`` without pins — vacuous in
    :func:`~repro.pattern.kernels.combine_children`) and ``ends``, the
    last four: the node's point and its parent's, i.e. ``xs, ys, xt,
    yt`` of its two-pin net (a root is its own target).

    Schedule, filled by the planner: ``waves[h]`` are the
    non-root rows of height ``h`` sorted by mode and ``mode_bounds[h]``
    the offsets that split them by mode (one more than :data:`MODES`);
    ``kids[h]``/``kid_slot[h]`` list the children of those rows and the
    position of each one's parent in ``waves[h]``.  The last entry of
    ``kids``/``kid_slot`` belongs to ``roots``, the root rows of the
    jobs that have two-pin nets (``single_roots``: the others).
    ``levels[d]`` are the rows of depth ``d + 1``.  ``reads`` is the
    :class:`~repro.grid.cost.Footprint` the kernels will read, each
    job's lines on box ``first_box + job``.

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
        self.reads: Optional[Footprint] = None


__all__ = [
    "MODES",
    "PatternMode",
    "NetRoutingJob",
    "BatchState",
    "ModeSelector",
    "HpwlSelector",
    "constant_mode",
    "mode_codes",
]
