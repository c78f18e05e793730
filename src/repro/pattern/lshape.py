"""GPU-friendly 3-D L-shape pattern routing (Sec. III-D, Fig. 8).

For a two-pin net ``Ps -> Pt`` there are two candidate bend points in
2-D (``(xt, ys)`` and ``(xs, yt)``); in 3-D every ``(ls, lt)`` layer
pair is a candidate path ``P{Ps, B_ls, T_lt}`` with cost Eq. 1.  The
whole wave of two-pin nets is priced with one stacked prefix-sum gather
for its ``4B`` segments, one for its ``2B`` bend points, and one
:func:`~repro.pattern.kernels.minplus_two_bend` call over the two bends
stacked like candidates — the paper's Eq. 5–7 computation graph flow,
batched.

All array work runs on ``query.backend``; this driver owns the
host↔device boundary (every result comes back as NumPy).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.grid.cost import CostQuery
from repro.pattern.kernels import minplus_two_bend

WaveResult = Tuple[np.ndarray, np.ndarray]

# Bend 0 is Ps --H--> (xt, ys) --V--> Pt, bend 1 is Ps --V--> (xs, yt)
# --H--> Pt.  Rows of ``ends`` (xs, ys, xt, yt) holding (x, y) of each
# bend, and x1, y1, x2, y2 of [first, second segment] x [bend].
_BENDS = np.array([[2, 1], [0, 3]])
_SEGMENTS = np.array(
    [[[0, 0], [2, 0]], [[1, 1], [1, 3]], [[2, 0], [2, 2]], [[1, 3], [3, 3]]]
)
# What pricing a net reads of the cost snapshot, as rows of ``ends``:
# ``segment_cost_layers`` gathers row y1 and column x1 of each segment,
# ``via_matrix`` the pillar at each bend, the combine those at the ends.
# Per line: its family (0 row, 1 column, 2 pillar), then the entries of
# ``ends`` giving its coordinate — a pillar's G-cell is ``x * ny + y``.
_READ_FAMILY = np.array([0, 0, 1, 1, 2, 2, 2, 2])
_READ_LINE = np.array(
    sorted({int(i) for i in _SEGMENTS[1].flat})
    + sorted({int(i) for i in _SEGMENTS[0].flat})
    + [x for x, _ in [(0, 1), (2, 3), *_BENDS.tolist()]]
)
_READ_PILLAR_Y = np.array([y for _, y in [(0, 1), (2, 3), *_BENDS.tolist()]])


def lshape_reads(ends: np.ndarray, ny: int):
    """The snapshot lines pricing each L two-pin net of ``ends (4, B)``
    (``xs, ys, xt, yt``) reads: ``family (8,)`` — 0 a row, 1 a column,
    2 a via pillar — and ``lines (8, B)``: the ``y`` of each row, the
    ``x`` of each column and the G-cell ``x * ny + y`` of each pillar
    (the lines of a :class:`~repro.grid.cost.Footprint`; repeats
    allowed)."""
    lines = ends[_READ_LINE]
    lines[4:] *= ny
    lines[4:] += ends[_READ_PILLAR_Y]
    return _READ_FAMILY, lines


def lshape_bends(ends: np.ndarray) -> np.ndarray:
    """Return the two candidate bend points of each two-pin net.

    ``ends`` is ``(4, B)``: ``xs, ys, xt, yt``; the result is ``(2, 2,
    B)``, ``[bend][x or y]``.  Bend 0 routes the first segment
    horizontally (``B = (xt, ys)``); bend 1 routes it vertically
    (``B = (xs, yt)``).  For straight or degenerate nets the bends
    coincide with an endpoint and one segment is empty — the kernels
    price empty segments at zero on every layer.
    """
    return ends[_BENDS]


def route_lshape_wave(
    ends: np.ndarray, combine: np.ndarray, query: CostQuery
) -> WaveResult:
    """Price a wave of L-shape two-pin nets.

    Parameters
    ----------
    ends:
        ``(4, B)`` ints — ``xs, ys, xt, yt`` of the wave's two-pin nets.
    combine:
        ``(B, L)`` host array: bottom-children costs ``cbc`` at each
        net's source node (Eq. 2), already including pin via stacks.
    query:
        The frozen cost snapshot of the current scheduler batch.

    Returns
    -------
    values, path:
        ``values[b, lt] = c*(Ps, Pt, lt)`` (Eq. 7) and, per target
        layer, the winning path in the shape every pattern family
        reports: ``path[b, lt] = (ls, lb, bsx, bsy, btx, bty)``, source
        layer, middle layer and the two bend points — for an L shape
        the one bend twice, with the middle layer on ``lt``.  Both on
        the host.
    """
    n_tasks = ends.shape[1]
    n_layers = query.n_layers
    xp = query.backend

    # One gather for the 4B segments and one for the 2B bend points,
    # each ordered (task, bend) so the two bends stack like candidates.
    first, second = xp.unstack(
        xp.reshape(
            query.segment_cost_layers(*ends[_SEGMENTS].swapaxes(-1, -2).reshape(4, -1)),
            (2, n_tasks, 2, n_layers),
        )
    )
    bends = lshape_bends(ends)
    via = xp.reshape(
        query.via_matrix(*bends.transpose(1, 2, 0).reshape(2, -1)),
        (n_tasks, 2, n_layers, n_layers),
    )
    values, use_b, arg_ls = minplus_two_bend(
        xp.add(xp.asarray(np.asarray(combine)[:, None]), first),
        xp.add(via, xp.expand_dims(second, 2)),
        xp=xp,
    )
    use_b = xp.to_numpy(use_b).astype(bool)[:, :, None]
    path = np.empty((n_tasks, n_layers, 6), dtype=np.intp)
    path[:, :, 0] = xp.to_numpy(arg_ls)
    path[:, :, 1] = np.arange(n_layers)
    bend = np.where(use_b, bends[1].T[:, None], bends[0].T[:, None])  # (B, L, 2)
    path[:, :, 2:4] = path[:, :, 4:] = bend
    return xp.to_numpy(values), path


__all__ = ["WaveResult", "lshape_bends", "lshape_reads", "route_lshape_wave"]
