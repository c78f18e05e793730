"""The from-scratch cost-snapshot oracle.

:class:`~repro.grid.cost.CostQuery` keeps one set of persistent tables
and rewrites them in place: unmasked rebuilds recompute them, masked
rebuilds repaint an index plan of the read footprint.  Its contract is
that every table it serves is bit-identical to one built from scratch.
:class:`FullRebuildCostQuery` is that from-scratch build: fresh arrays
and a full recompute on every ``rebuild`` — a full one pins its costs
as the reference, a masked one copies that reference and paints whole
boxes over it whatever ``reads`` says.  The query methods it inherits
serve its tables unchanged.

:func:`full_rebuild_engine` makes every pattern router built inside it
use the oracle, so a whole flow can be routed once per engine and
compared::

    with full_rebuild_engine():
        oracle = GlobalRouter(load_benchmark("18test5", scale=0.05)).run()

Benchmarks import this module by putting the repository root on
``sys.path``.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterable, Optional, Tuple
from unittest import mock

import numpy as np

import repro.pattern.batch
from repro import metrics
from repro.grid.cost import CostQuery

IntRect = Tuple[int, int, int, int]


def rects_overlap(a: IntRect, b: IntRect) -> bool:
    """Return True when two closed ``(xlo, ylo, xhi, yhi)`` rects share a cell."""
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def rect_union_area(rects: Iterable[IntRect]) -> int:
    """Return the number of integer cells covered by a union of closed
    ``(xlo, ylo, xhi, yhi)`` rectangles (both corners inclusive).

    Rectangles that are empty on either axis (``hi < lo``) are skipped.
    Summing per-rect areas would double-count the cells overlapping
    rectangles share, so overlapping sets are counted on a
    coordinate-compressed occupancy grid.
    """
    boxes = [r for r in rects if r[0] <= r[2] and r[1] <= r[3]]
    if all(
        not rects_overlap(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1 :]
    ):
        return sum((r[2] - r[0] + 1) * (r[3] - r[1] + 1) for r in boxes)
    xs = np.unique([v for r in boxes for v in (r[0], r[2] + 1)])
    ys = np.unique([v for r in boxes for v in (r[1], r[3] + 1)])
    occupied = np.zeros((len(xs) - 1, len(ys) - 1), dtype=bool)
    for xlo, ylo, xhi, yhi in boxes:
        i0, i1 = np.searchsorted(xs, [xlo, xhi + 1])
        j0, j1 = np.searchsorted(ys, [ylo, yhi + 1])
        occupied[i0:i1, j0:j1] = True
    return int((occupied * np.diff(xs)[:, None] * np.diff(ys)[None, :]).sum())


class FullRebuildCostQuery(CostQuery):
    """A :class:`CostQuery` whose every rebuild starts from scratch."""

    def rebuild(self, boxes=None, reads=None) -> None:
        start = perf_counter()
        try:
            self._rebuild_full(boxes)
        finally:
            self.tracker.get_timer(metrics.COST_S).add(perf_counter() - start)

    def _rebuild_full(self, boxes) -> None:
        """The from-scratch oracle: fresh arrays, full recompute."""
        graph, model = self.graph, self.model
        nx, ny, n_layers = graph.nx, graph.ny, self.n_layers
        if boxes is None:
            self.wire_cost = [
                model.wire_edge_costs(graph, layer) for layer in range(n_layers)
            ]
            self.via_cost = model.via_edge_costs(graph)
        else:
            self.wire_cost = [a.copy() for a in self._ref_wire]
            self.via_cost = self._ref_via.copy()
            for box in boxes:
                for layer in range(n_layers):
                    # Wire edge [x, y] leaves cell (x, y) along the
                    # layer direction; recompute the edges whose both
                    # endpoints lie inside the box.
                    if self._h_allowed[layer]:
                        sl = (slice(box.xlo, box.xhi), slice(box.ylo, box.yhi + 1))
                    else:
                        sl = (slice(box.xlo, box.xhi + 1), slice(box.ylo, box.yhi))
                    self.wire_cost[layer][sl] = model.unit_wire_cost + model.congestion(
                        graph.wire_demand[layer][sl], graph.wire_capacity[layer][sl]
                    )
                vsl = (
                    slice(None),
                    slice(box.xlo, box.xhi + 1),
                    slice(box.ylo, box.yhi + 1),
                )
                self.via_cost[vsl] = model.unit_via_cost + model.congestion(
                    graph.via_demand[vsl], graph.via_capacity[vsl]
                )

        # Full-(L, nx, ny) edge layout: row/column 0 pads the exclusive
        # prefix, layers of the wrong direction stay all-zero and are
        # masked out at query time by _h_allowed/_v_allowed.
        h_edge = np.zeros((n_layers, nx, ny))
        v_edge = np.zeros((n_layers, nx, ny))
        for layer in range(n_layers):
            if self._h_allowed[layer]:
                h_edge[layer, 1:, :] = self.wire_cost[layer]  # (nx-1, ny)
            else:
                v_edge[layer, :, 1:] = self.wire_cost[layer]  # (nx, ny-1)
        via_edge = np.zeros((n_layers, nx, ny))
        via_edge[1:] = self.via_cost

        if boxes is None:
            # The reference of later masked rebuilds: these costs and
            # their wire-prefix sums.
            self._ref_wire = [a.copy() for a in self.wire_cost]
            self._ref_via = self.via_cost.copy()
            # Host-side scans feed both twins: the device twin is a
            # (buffer-reusing) upload of the host result — no
            # device-to-host round-trip, and steady-state rebuilds on a
            # non-device_is_host backend allocate no fresh device
            # planes (see _upload_prefix).  Host np.cumsum and the
            # backend's cumsum are bit-identical by the backend
            # contract, so the twins stay exact copies.
            self._h_prefix = np.cumsum(h_edge, axis=1)
            self._v_prefix = np.cumsum(v_edge, axis=2)
            self._via_prefix = np.cumsum(via_edge, axis=0)
            self._ref_h_prefix = self._h_prefix.copy()
            self._ref_v_prefix = self._v_prefix.copy()
            self._h_prefix_dev = self._upload_prefix(
                self._h_prefix_dev, self._h_prefix
            )
            self._v_prefix_dev = self._upload_prefix(
                self._v_prefix_dev, self._v_prefix
            )
            self._via_prefix_dev = self._upload_prefix(
                self._via_prefix_dev, self._via_prefix
            )
        else:
            # Per-box seeded wire prefixes (docstring): reference prefix
            # everywhere, then one anchored in-box scan per box.  Via
            # prefixes are pillar-local cumsums — already a pure
            # function of the pillar's own (in-box) costs.
            self._h_prefix = self._ref_h_prefix.copy()
            self._v_prefix = self._ref_v_prefix.copy()
            self._via_prefix = np.cumsum(via_edge, axis=0)
            for box in boxes:
                for layer in range(n_layers):
                    rect = self._box_wire_rect(layer, box)
                    if rect is not None:
                        self._seed_wire_prefix(layer, rect, h_edge, v_edge)
            self._h_prefix_dev = self._upload_prefix(
                self._h_prefix_dev, self._h_prefix
            )
            self._v_prefix_dev = self._upload_prefix(
                self._v_prefix_dev, self._v_prefix
            )
            self._via_prefix_dev = self._upload_prefix(
                self._via_prefix_dev, self._via_prefix
            )

        if boxes is None:
            kind = metrics.COST_FULL_REBUILDS
            wire_n = sum(int(a.size) for a in self.wire_cost)
            via_n = int(self.via_cost.size)
        else:
            kind = metrics.COST_MASKED_REBUILDS
            wire_n, via_n = self._boxes_edge_tally(boxes)
        self._count(kind, wire_n, via_n, wire_n + via_n)

    def _box_wire_rect(self, layer: int, box) -> Optional[IntRect]:
        """Clipped in-box edge rect of ``box`` on ``layer`` (or None)."""
        if self._h_allowed[layer]:
            rect = (box.xlo, box.ylo, box.xhi - 1, box.yhi)
        else:
            rect = (box.xlo, box.ylo, box.xhi, box.yhi - 1)
        shape = self.wire_cost[layer].shape
        xlo, ylo = max(rect[0], 0), max(rect[1], 0)
        xhi, yhi = min(rect[2], shape[0] - 1), min(rect[3], shape[1] - 1)
        if xhi < xlo or yhi < ylo:
            return None
        return (xlo, ylo, xhi, yhi)

    def _seed_wire_prefix(self, layer: int, rect: IntRect, h_edge, v_edge) -> None:
        """Anchored in-box prefix scan (edge-rect indices on the scan
        axis): reference prefix at the box's upstream face, then the
        box's own live edge costs.  ``tmp[0] += anchor`` is the same
        IEEE operation the reference scan performed at that position,
        so identical inputs reproduce the reference bits exactly."""
        xlo, ylo, xhi, yhi = rect
        if self._h_allowed[layer]:
            rows = slice(ylo, yhi + 1)
            tmp = h_edge[layer, xlo + 1 : xhi + 2, rows].copy()
            tmp[0] += self._ref_h_prefix[layer, xlo, rows]
            np.cumsum(tmp, axis=0, out=self._h_prefix[layer, xlo + 1 : xhi + 2, rows])
        else:
            cols = slice(xlo, xhi + 1)
            tmp = v_edge[layer, cols, ylo + 1 : yhi + 2].copy()
            tmp[:, 0] += self._ref_v_prefix[layer, cols, ylo]
            np.cumsum(tmp, axis=1, out=self._v_prefix[layer, cols, ylo + 1 : yhi + 2])

    def _boxes_edge_tally(self, boxes) -> Tuple[int, int]:
        """Deduplicated (wire, via) edge counts covered by ``boxes``."""
        h_rects = [(b.xlo, b.ylo, b.xhi - 1, b.yhi) for b in boxes]
        v_rects = [(b.xlo, b.ylo, b.xhi, b.yhi - 1) for b in boxes]
        cell_rects = [(b.xlo, b.ylo, b.xhi, b.yhi) for b in boxes]
        n_h = int(self._h_allowed.sum())
        n_v = self.n_layers - n_h
        wire_n = rect_union_area(h_rects) * n_h + rect_union_area(v_rects) * n_v
        via_n = rect_union_area(cell_rects) * max(self.n_layers - 1, 0)
        return wire_n, via_n


@contextmanager
def full_rebuild_engine():
    """Build every pattern router's cost snapshot as a
    :class:`FullRebuildCostQuery` (the maze engines keep no snapshot).

    Patches the ``CostQuery`` name the pattern routers
    (:mod:`repro.pattern.batch`) construct their snapshots from.
    """
    with mock.patch.object(repro.pattern.batch, "CostQuery", FullRebuildCostQuery):
        yield


__all__ = ["FullRebuildCostQuery", "full_rebuild_engine"]
