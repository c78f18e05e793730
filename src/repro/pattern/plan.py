"""Planning a fused pattern level as arrays (Sec. III-A, Fig. 5 and 7).

Pattern routing plans on the host — a Steiner tree per net, edge
shifting, the bottom-up two-pin order — and lays the plans out as one
:class:`~repro.pattern.twopin.BatchState` whose waves the kernels
evaluate.  :func:`plan_level` plans a whole fused level with whole-batch
NumPy ops instead of net by net, the host-side analogue of GAP-LA's
level-by-level array assignment:

* **Closed-form trees.**  A net with at most three distinct pin G-cells
  has its tree in closed form: one node, one edge, or Prim's spanning
  tree over three points plus at most one median Steiner point.  That is
  exactly what :func:`~repro.tree.steiner.build_steiner_tree` and
  :func:`~repro.tree.ordering.order_tree` build — node order, neighbour
  order, root and DFS child order included — decided for all such nets
  at once.  Edge shifting cannot move the median point: the median box
  of its three neighbours is a single point.
* **Planned jobs.**  Nets with four or more pin cells go through
  ``make_job`` (Steiner tree, edge shifting, ordering); their nodes feed
  the same layout.
* **One layout pass.**  Every tree node is a column of a few ints; the
  node table, the waves split by mode, the child lists, the descent
  levels, the roots and every net's read footprint follow from sorts,
  bincounts and gathers.  Modes come from the selector's ``codes``
  (:func:`~repro.pattern.twopin.mode_codes`).

Everything here is host NumPy: planning is not device work, so none of
it goes through the metered backend.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.grid.cost import Footprint
from repro.netlist.net import Net, pin_table
from repro.pattern.lshape import lshape_reads
from repro.pattern.twopin import MODES, BatchState, ModeSelector, NetRoutingJob, mode_codes
from repro.pattern.zshape import candidate_reads
from repro.utils.arrays import ranges, unique_sorted

#: Per-node fields of a closed-form tree, in this order: the node's
#: index in its net's tree, its parent's (``-1`` at the root), depth,
#: subtree height, ``rank`` — its position in the parent's neighbour
#: list — and its cell: an index among the net's distinct pin cells, or
#: 3 for the Steiner point.
NODE, PARENT, DEPTH, HEIGHT, RANK, CELL = range(6)
#: Read keys are ``(family * n_boxes + box) * _SPAN + line``.
_SPAN = 1 << 32


def _three_cell_tree(centre: int, a: int, b: int, steiner: bool):
    """The nodes of a three-cell net whose spanning tree has both edges
    at pin ``centre``, its neighbours listed ``a``, ``b``."""
    if not steiner:  # rooted at the only degree-2 pin
        return [
            (k, -1, 0, 1, 0, k) if k == centre else (k, centre, 1, 0, int(k == b), k)
            for k in range(3)
        ]
    # Every pin has degree 1: node 0 is the root, the Steiner point its
    # child, the other pins the Steiner point's children in its
    # neighbour order centre, a, b.
    order = (centre, a, b)
    return [
        (k, -1, 0, 2, 0, k) if k == 0 else (k, 3, 2, 0, order.index(k), k) for k in range(3)
    ] + [(3, 0, 1, 1, 0, 3)]


#: ``(centre, a, b)`` of a three-cell spanning tree, indexed by Prim's
#: two choices (see :func:`_shapes`): 2 * (node 2 joined first) + (the
#: last node joined to node 0).
_CENTRES = ((1, 0, 2), (0, 1, 2), (2, 0, 1), (0, 2, 1))
#: Every closed-form tree: one cell, two cells, then the three-cell
#: trees without and with a Steiner point, in :data:`_CENTRES` order.
_SHAPES = [
    [(0, -1, 0, 0, 0, 0)],
    [(0, -1, 0, 1, 0, 0), (1, 0, 1, 0, 0, 1)],
    *(_three_cell_tree(*centre, steiner) for steiner in (False, True) for centre in _CENTRES),
]
_SHAPE_SIZE = np.array([len(shape) for shape in _SHAPES])
_SHAPE_START = _SHAPE_SIZE.cumsum() - _SHAPE_SIZE
_SHAPE_NODES = np.array([node for shape in _SHAPES for node in shape]).T


class NetCells(NamedTuple):
    """The distinct pin G-cells of a list of nets and their closed-form
    trees (see :func:`net_cells`)."""

    first: np.ndarray  # per net: its first cell ...
    count: np.ndarray  # ... and how many pin cells follow (then its median point)
    cells: np.ndarray  # (4, C): pin layers lo, hi and x, y of each cell
    shape: np.ndarray  # per net: its tree in :data:`_SHAPES` (junk above 3 cells)

    def take(self, index) -> "NetCells":
        """The same of the nets at ``index``."""
        count = self.count[index]
        size = count + 1
        _, cell = ranges(self.first[index], size)
        return NetCells(size.cumsum() - size, count, self.cells[:, cell], self.shape[index])


def net_cells(pins: np.ndarray, counts: np.ndarray, n_layers: int) -> NetCells:
    """:class:`NetCells` of the nets whose pins are ``pins`` and
    ``counts``, a :func:`~repro.netlist.net.pin_table`.

    Each net's cells are its pin cells in ``(x, y)`` order, then its
    median point as a pinless cell ``(L, -1, x, y)`` — node 3 of a
    closed form that inserts a Steiner point.
    """
    first, count, cells = _pin_cells(pins, counts)
    shape, steiner = _shapes(first, count, cells, n_layers)
    net = np.arange(count.size)
    first += net
    merged = np.empty((4, cells.shape[1] + count.size), dtype=np.intp)
    merged[:, np.arange(cells.shape[1]) + net.repeat(count)] = cells
    merged[:, first + count] = steiner
    return NetCells(first, count, merged, shape)


def plan_level(
    nets: Sequence[Net],
    mode_fn: ModeSelector,
    n_layers: int,
    ny: int,
    make_job: Callable[[Net], NetRoutingJob],
    first_box: int = 0,
    cells: Optional[NetCells] = None,
) -> BatchState:
    """Plan ``nets`` as one batch state, net ``i`` on box ``first_box + i``.

    Closed forms for nets with at most three distinct pin G-cells,
    ``make_job`` for the others, one layout pass for all of them.
    ``cells`` are the nets' :class:`NetCells` if the caller has them.
    """
    if cells is None:
        cells = net_cells(*pin_table(nets), n_layers)
    first, count, points, shape = cells
    big = (count > 3).nonzero()[0].tolist()
    jobs = [make_job(nets[i]) for i in big]
    n_nodes = _SHAPE_SIZE[shape]
    n_nodes[big] = [job.tree.n_nodes for job in jobs]
    row0 = n_nodes.cumsum() - n_nodes
    # The closed forms' nodes, gathered from the shape table.
    closed = (count <= 3).nonzero()[0]
    owner, entry = ranges(_SHAPE_START[shape[closed]], n_nodes[closed])
    net = closed[owner]
    node = _SHAPE_NODES[:, entry]
    fields = np.empty((9, int(n_nodes.sum())), dtype=np.intp)
    rows = row0[net] + node[NODE]
    fields[0, rows] = net
    fields[1:5, rows] = node[PARENT:CELL]
    fields[5:, rows] = points[:, first[net] + node[CELL]]
    if jobs:
        planned = _job_nodes(jobs, big, n_layers)
        fields[:, row0[planned[0]] + planned[1]] = planned[[0, *range(2, 10)]]
    return _layout(fields, row0, mode_fn, n_layers, ny, first_box)


def plan_jobs(
    jobs: Sequence[NetRoutingJob], mode_fn: ModeSelector, n_layers: int, ny: int, first_box: int = 0
) -> BatchState:
    """Lay planned ``jobs`` out as one batch state (see :func:`plan_level`)
    and point each job at its rows."""
    planned = _job_nodes(jobs, range(len(jobs)), n_layers)
    row0 = (planned[1] == 0).nonzero()[0]
    state = _layout(planned[[0, *range(2, 10)]], row0, mode_fn, n_layers, ny, first_box)
    for index, (job, first) in enumerate(zip(jobs, row0.tolist())):
        job.state, job.index, job.row0 = state, index, first
    return state


# ---------------------------------------------------------------------- #
# Trees
# ---------------------------------------------------------------------- #
def _pin_cells(pins: np.ndarray, counts: np.ndarray):
    """The distinct pin G-cells of every net, sorted by ``(x, y)`` inside
    a net as :func:`~repro.tree.steiner.build_steiner_tree` numbers its
    pin nodes: ``first``/``count`` per net into ``cells (4, C)``, rows
    ``lo, hi, x, y`` — the cell's pin layer range and its G-cell."""
    x, y, layer = pins
    n_nets = counts.size
    net = np.arange(n_nets).repeat(counts)
    order = np.lexsort((layer, y, x, net))
    net, x, y, layer = net[order], x[order], y[order], layer[order]
    new = np.empty(net.size, dtype=bool)
    new[:1] = True
    new[1:] = (net[1:] != net[:-1]) | (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    start = new.nonzero()[0]
    new[:-1] = new[1:]
    new[-1:] = True  # now marks each cell's last pin
    count = np.bincount(net[start], minlength=n_nets)
    cells = np.array([layer[start], layer[new], x[start], y[start]])
    return count.cumsum() - count, count, cells


def _shapes(first, count, cells, n_layers: int):
    """Each net's closed-form tree, as an index into :data:`_SHAPES`, and
    each net's Steiner point as a cell ``(L, -1, x, y)`` (used only where
    its shape has one).

    One cell is a lone root.  Two are an edge rooted at node 0 (Prim's
    only edge; ``order_tree`` breaks the degree tie by lower index).
    Three: Prim from node 0 takes the nearer of nodes 1 and 2 (ties:
    node 1), then attaches the last node to whichever tree node is
    strictly nearer (ties: node 0), so one *centre* holds both edges.
    Steinerisation inserts the triple's median point unless it is one
    of the pins — it is strictly shorter whenever it is not.  Edge
    shifting leaves it in place: its neighbours' median box is the point
    itself.  The shapes of nets with four or more cells are junk.
    """
    # Every net's first three cells (repeating the last of fewer).
    pick = first[:, None] + np.minimum(np.arange(3), count[:, None] - 1)
    px, py = cells[2, pick], cells[3, pick]
    # Distances d01, d02, d12.
    d = np.abs(px[:, [0, 0, 1]] - px[:, [1, 2, 2]]) + np.abs(py[:, [0, 0, 1]] - py[:, [1, 2, 2]])
    two_first = d[:, 0] > d[:, 1]
    to_zero = np.where(two_first, d[:, 2] >= d[:, 0], d[:, 2] >= d[:, 1])
    px.sort(axis=1)
    py.sort(axis=1)
    sx, sy = px[:, 1], py[:, 1]
    on_pin = (cells[2, pick] == sx[:, None]) & (cells[3, pick] == sy[:, None])
    three = 2 + 4 * ~on_pin.any(axis=1) + 2 * two_first + to_zero
    shape = np.where(count == 3, three, np.minimum(count, 2) - 1)
    return shape, np.array([np.full_like(sx, n_layers), np.full_like(sx, -1), sx, sy])


def _job_nodes(jobs: Sequence[NetRoutingJob], indices, n_layers: int) -> np.ndarray:
    """The nodes of planned ``jobs`` as ``(10, N)`` ints, job
    ``jobs[i]`` as net ``indices[i]``: rows net, node, parent, depth,
    height, rank, pin layers ``lo, hi`` (``(L, -1)`` without pins) and
    ``x, y``."""
    rows = []
    append = rows.append
    for index, job in zip(indices, jobs):
        nodes, ordered = job.tree.nodes, job.ordered
        for i, (node, parent, depth, height) in enumerate(
            zip(nodes, ordered.parent, ordered.depth, ordered.subtree_height())
        ):
            layers, point = node.pin_layers, node.point
            append((
                index, i, parent, depth, height,
                nodes[parent].neighbors.index(i) if parent >= 0 else 0,
                min(layers) if layers else n_layers,
                max(layers) if layers else -1,
                point.x, point.y,
            ))
    return np.array(rows, dtype=np.intp).reshape(-1, 10).T


# ---------------------------------------------------------------------- #
# Layout
# ---------------------------------------------------------------------- #
def _split(values: np.ndarray, sizes) -> List[np.ndarray]:
    """``values`` cut into consecutive pieces of ``sizes``."""
    stops = sizes.cumsum().tolist()
    return [values[lo:hi] for lo, hi in zip([0, *stops], stops)]


def _layout(
    fields: np.ndarray,
    row0: np.ndarray,
    mode_fn: ModeSelector,
    n_layers: int,
    ny: int,
    first_box: int,
) -> BatchState:
    """The batch state of ``fields (9, N)`` — per row: net, parent node,
    depth, height, rank, ``lo, hi, x, y`` — whose net ``j`` starts at
    row ``row0[j]``; every field :class:`~repro.pattern.twopin.BatchState`
    documents filled."""
    job, parent, depth, height, rank = fields[:5]
    n_rows = job.size
    has_parent = parent >= 0
    parent_row = np.where(has_parent, row0[job] + parent, -1)
    target = np.where(has_parent, parent_row, np.arange(n_rows))
    table = np.empty((8, n_rows), dtype=np.intp)
    table[0], table[1], table[2:6], table[6:] = job, parent_row, fields[5:], fields[7:, target]
    state = BatchState(row0.size, table, n_layers)

    # Waves: the non-root rows by height, then mode, then row.
    child = has_parent.nonzero()[0]
    mode = mode_codes(mode_fn, table[4:, child])
    n_waves = int(height[child].max()) + 1 if child.size else 0
    group = height[child] * len(MODES) + mode
    in_waves = child[group.argsort(kind="stable")]
    per_mode = np.bincount(group, minlength=n_waves * len(MODES)).reshape(n_waves, len(MODES))
    per_wave = per_mode.sum(axis=1)
    slot = np.empty(n_rows, dtype=np.intp)  # position in its wave, or in roots
    slot[in_waves] = np.arange(in_waves.size) - (per_wave.cumsum() - per_wave).repeat(per_wave)
    root = (~has_parent).nonzero()[0]
    multi = height[root] > 0
    state.roots, state.single_roots = root[multi], root[~multi]
    slot[state.roots] = np.arange(state.roots.size)
    if n_waves:
        state.waves = _split(in_waves, per_wave)
        state.mode_bounds = [[0, *bounds] for bounds in per_mode.cumsum(axis=1).tolist()]
        state.levels = _split(
            child[depth[child].argsort(kind="stable")], np.bincount(depth[child])[1:]
        )

    # Children by the wave that combines at their parent (roots' last),
    # then by parent row, then in the parent's neighbour order.
    parent_row = parent_row[child]
    parent_wave = np.where(has_parent[parent_row], height[parent_row], n_waves)
    order = np.lexsort((rank[child], parent_row, parent_wave))
    per_wave = np.bincount(parent_wave, minlength=n_waves + 1)
    state.kids = _split(child[order], per_wave)
    state.kid_slot = _split(slot[parent_row[order]], per_wave)

    # Read footprint: each two-pin net's lines (declared beside its
    # kernel) and each root's pillar, on its net's box, keyed by
    # (family, box, line) and de-duplicated.
    box = first_box + job
    n_boxes = first_box + row0.size
    keys = [(2 * n_boxes + box[root]) * _SPAN + table[4, root] * ny + table[5, root]]
    rows = child[mode == 0]
    if rows.size:
        family, lines = lshape_reads(table[4:, rows], ny)
        keys.append(((family[:, None] * n_boxes + box[rows]) * _SPAN + lines).ravel())
    rows = child[mode != 0]
    if rows.size:
        family, net, line = candidate_reads(table[4:, rows], ny)
        keys.append((family * n_boxes + box[rows][net]) * _SPAN + line)
    owner, line = np.divmod(unique_sorted(np.concatenate(keys)), _SPAN)
    family, box = np.divmod(owner, n_boxes)
    lines = np.array([box, line])
    cut = family.searchsorted([1, 2]).tolist()
    state.reads = Footprint(lines[:, : cut[0]], lines[:, cut[0] : cut[1]], lines[:, cut[1] :])
    return state


__all__ = ["NetCells", "net_cells", "plan_level", "plan_jobs"]
