"""GPU-friendly 3-D Z-shape pattern routing (Sec. III-E, Fig. 9–10).

A Z path ``Ps -> Bs -> Bt -> Pt`` has two bend points; once the target
bend ``Bt`` is placed on one of the bounding-box edges touching ``Pt``,
the source bend ``Bs`` is determined.  Pure Z-shape offers ``M + N - 2``
candidate bend-point pairs.  Every candidate is one computation flow
(Eq. 11–14) and a merge step (Eq. 10) folds them — all batched, padded
to the widest candidate count.

This module also hosts :func:`route_candidate_wave`, the shared chunked
driver for every candidate-enumeration pattern family; the hybrid shape
(Sec. III-F) plugs its own enumeration into it from
:mod:`repro.pattern.hybrid`.  A chunk prices its ``3·B·C`` segments
with one stacked prefix-sum gather and its ``2·B·C`` bend points with
another.  All array work runs on ``query.backend``; the driver owns the
host↔device boundary.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.grid.cost import CostQuery
from repro.pattern.kernels import zshape_reduce
from repro.pattern.lshape import WaveResult
from repro.utils.arrays import ranges

#: ``ends (4, B)`` -> ``(geometry (B, C, 4), valid (B, C))``.
CandidateFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def enumerate_candidates(ends: np.ndarray, corner_rows: bool):
    """Bend-point pairs of a wave of two-pin nets, padded to the widest.

    Returns ``geometry (B, C, 4)`` with rows ``(bs_x, bs_y, bt_x, bt_y)``
    and ``valid (B, C)``.  Two families per net, in this order:

    * **HVH** — horizontal, vertical, horizontal: ``Bs = (bx, ys)``,
      ``Bt = (bx, yt)`` for every column ``bx`` of the bounding box
      (``M`` flows; the extreme columns degenerate into L shapes);
    * **VHV** — ``Bs = (xs, by)``, ``Bt = (xt, by)`` for every row
      ``by`` of the box (``N`` flows) with ``corner_rows``, for the
      interior rows only (``N - 2``) without.

    Padding repeats the source point, so every padded segment is
    degenerate (finite cost) until ``valid`` masks it out.
    """
    xs, ys, xt, yt = (e[:, None] for e in ends)
    n_columns = np.abs(xs - xt) + 1
    n_rows = np.abs(ys - yt) + 1
    if not corner_rows:
        n_rows = np.maximum(n_rows - 2, 0)
    k = np.arange(int((n_columns + n_rows).max(initial=0)))[None, :]
    hvh = k < n_columns
    valid = k < n_columns + n_rows
    bx = np.minimum(xs, xt) + k
    by = np.minimum(ys, yt) + (k - n_columns) + (0 if corner_rows else 1)
    geometry = np.stack(
        [np.where(hvh, bx, xs), np.where(hvh, ys, by),
         np.where(hvh, bx, xt), np.where(hvh, yt, by)],
        axis=-1,
    )
    source = np.stack([xs, ys, xs, ys], axis=-1)
    return np.where(valid[:, :, None], geometry, source), valid


def candidate_reads(ends: np.ndarray, ny: int):
    """The snapshot lines pricing each Z or hybrid two-pin net of ``ends
    (4, B)`` reads, flat: ``family``, ``net`` and ``line`` per line, as
    :func:`~repro.pattern.lshape.lshape_reads` defines them.

    An HVH flow runs along rows ``ys``/``yt`` and column ``bx``, a VHV
    flow along columns ``xs``/``xt`` and row ``by``, so the candidates
    read every row and column of the net's bounding box; their bends
    (and the padding, which repeats the source) sit on its boundary.
    """
    xs, ys, xt, yt = ends
    xlo, ylo = np.minimum(xs, xt), np.minimum(ys, yt)
    width, height = np.abs(xs - xt) + 1, np.abs(ys - yt) + 1
    # Per net: its rows, its columns, then the boundary pillars along
    # rows ys and yt and columns xs and xt.
    count = np.concatenate([height, width, width, width, height, height])
    net, line = ranges(
        np.concatenate([ylo, xlo, xlo * ny + ys, xlo * ny + yt, xs * ny + ylo, xt * ny + ylo]),
        count,
        np.repeat([1, 1, ny, ny, 1, 1], xs.size),
    )
    n_rows, n_columns = height.sum(), width.sum()
    family = np.repeat([0, 1, 2], [n_rows, n_columns, count.sum() - n_rows - n_columns])
    return family, net % xs.size, line


def zshape_candidates(ends: np.ndarray):
    """Enumerate pure-Z candidates: ``M + N - 2`` flows per net.

    The extreme VHV rows duplicate L shapes the HVH family already
    covers, matching the paper's count for the plain Z pattern.
    """
    return enumerate_candidates(ends, corner_rows=False)


def route_zshape_wave(
    ends: np.ndarray,
    combine: np.ndarray,
    query: CostQuery,
    max_chunk_elements: int = 150_000,
) -> WaveResult:
    """Price a wave of pure-Z two-pin nets.

    Takes and returns what
    :func:`repro.pattern.lshape.route_lshape_wave` does.
    """
    return route_candidate_wave(
        ends, combine, query, zshape_candidates, max_chunk_elements
    )


def route_candidate_wave(
    ends: np.ndarray,
    combine: np.ndarray,
    query: CostQuery,
    candidate_fn: CandidateFn,
    max_chunk_elements: int = 150_000,
) -> WaveResult:
    """Price a wave of candidate-enumeration two-pin nets.

    ``candidate_fn`` maps the wave's ``ends`` to its padded bend-pair
    geometry (:func:`zshape_candidates`, or the hybrid enumeration).
    Work is split into chunks bounded by ``max_chunk_elements`` tensor
    entries so a few huge nets cannot blow up memory (the pathology the
    paper's selection technique exists to avoid, Sec. IV-D).
    """
    n_tasks = ends.shape[1]
    n_layers = query.n_layers
    geometry, valid = candidate_fn(ends)
    counts = valid.sum(axis=1)
    values = np.empty((n_tasks, n_layers))
    path = np.empty((n_tasks, n_layers, 6), dtype=np.intp)

    # Cluster tasks of similar candidate counts to minimise padding.
    order = np.argsort(counts, kind="stable")
    widths = counts[order].tolist()  # ascending: a chunk's last is its widest
    start = 0
    while start < n_tasks:
        stop = start + 1
        while (
            stop < n_tasks
            and (stop - start + 1) * widths[stop] * n_layers * n_layers
            <= max_chunk_elements
        ):
            stop += 1
        chunk = order[start:stop]
        width = widths[stop - 1]
        values[chunk], path[chunk] = _route_chunk(
            ends[:, chunk],
            geometry[chunk, :width],
            valid[chunk, :width],
            combine[chunk],
            query,
        )
        start = stop
    return values, path


def _route_chunk(
    ends: np.ndarray,
    geometry: np.ndarray,
    valid: np.ndarray,
    combine: np.ndarray,
    query: CostQuery,
) -> WaveResult:
    """Evaluate one padded chunk in a single batched reduction."""
    n_layers = query.n_layers
    xp = query.backend
    b, width = valid.shape
    bsx, bsy, btx, bty = (geometry[:, :, i] for i in range(4))
    srcx = np.broadcast_to(ends[0][:, None], valid.shape)
    srcy = np.broadcast_to(ends[1][:, None], valid.shape)
    # A padded flow ends where it starts: all three segments degenerate.
    dstx = np.where(valid, ends[2][:, None], srcx)
    dsty = np.where(valid, ends[3][:, None], srcy)

    # Segments Ps->Bs, Bs->Bt, Bt->Pt stacked into one gather.
    segments = query.segment_cost_layers(
        np.stack([srcx, bsx, btx]).reshape(-1),
        np.stack([srcy, bsy, bty]).reshape(-1),
        np.stack([bsx, btx, dstx]).reshape(-1),
        np.stack([bsy, bty, dsty]).reshape(-1),
    )
    seg_first, seg_mid, seg_last = xp.unstack(
        xp.reshape(segments, (3, b, width, n_layers))
    )
    via_bs, via_bt = xp.unstack(
        xp.reshape(
            query.via_matrix(
                np.stack([bsx, btx]).reshape(-1), np.stack([bsy, bty]).reshape(-1)
            ),
            (2, b, width, n_layers, n_layers),
        )
    )

    w1 = xp.add(xp.expand_dims(xp.asarray(combine), 1), seg_first)  # Eq. 11
    mat2 = xp.add(via_bs, xp.expand_dims(seg_mid, 2))  # Eq. 12
    mat3 = xp.add(via_bt, xp.expand_dims(seg_last, 2))  # Eq. 13
    values, cand, arg_lb, arg_ls = zshape_reduce(w1, mat2, mat3, valid, xp=xp)
    path = np.empty((b, n_layers, 6), dtype=np.intp)
    path[:, :, 0] = xp.to_numpy(arg_ls)
    path[:, :, 1] = xp.to_numpy(arg_lb)
    path[:, :, 2:] = geometry[np.arange(b)[:, None], xp.to_numpy(cand)]
    return xp.to_numpy(values), path


__all__ = [
    "CandidateFn",
    "candidate_reads",
    "enumerate_candidates",
    "route_candidate_wave",
    "route_zshape_wave",
    "zshape_candidates",
]
