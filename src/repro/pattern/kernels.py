"""Dense min-plus kernels: the paper's computation-graph flows.

Every function here is a pure array transformation — no grid, net or
tree objects — mirroring what the CUDA kernels compute on device:

* :func:`minplus_vec_mat` is Eq. 7: ``c*(lt) = min_ls (w1[ls] + W2[ls, lt])``;
* :func:`minplus_two_bend` evaluates both L-shape bends and merges;
* :func:`zshape_reduce` is Eq. 14 plus the merge step of Eq. 10:
  ``c*(lt) = min_i min_{ls, lb} (w1[i, ls] + W2[i, ls, lb] + W3[i, lb, lt])``;
* :func:`combine_children` is the exact via-stack form of the bottom
  children cost, Eq. 2 (see DESIGN.md Sec. 5): enumerate via-stack
  intervals ``[lo, hi]`` and charge every child its best layer inside.

All kernels carry batch dimensions so one call covers every two-pin net
of a wave (lock-step lanes on the simulated device); all return argmins
for path reconstruction.

The kernels are written once against the :class:`ArrayBackend`
protocol and run unchanged on every registered backend — pass ``xp``
to choose one (default: the ``numpy`` backend).  Cost operands are
backend arrays (the drivers upload once; the host-resident backends
also take NumPy arrays as they are), index and mask operands are
uploaded here; outputs are backend arrays, so callers own the
``to_numpy`` boundary.  Every op is a fixed-association IEEE-754
double add/subtract/compare, so all backends produce bit-identical
costs and argmins (see :mod:`repro.backend.base`).

The index grids that depend only on the layer count live in a
:class:`LayerTables`, which a router builds once and hands to every
launch; a kernel called without one builds its own.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.backend import ArrayBackend, get_backend

INF = float("inf")

# Finite stand-in for "unreachable" inside summed child tables: real
# infinities would poison the via-stack sums of *other* intervals via
# inf - inf = nan.  Any interval containing one of these can never win.
_UNREACHABLE = 1e18


def _xp(backend: Optional[ArrayBackend]) -> ArrayBackend:
    return backend if backend is not None else get_backend("numpy")


class LayerTables:
    """Index grids of an ``L``-layer stack on one backend.

    ``layers`` is ``(1, L)``, ``lo_grid`` ``(1, 1, L, 1)`` and
    ``hi_grid`` ``(1, 1, 1, L)`` hold the layer index along the axis
    their name says, and ``upper[lo, hi]`` is ``lo <= hi``.
    """

    def __init__(self, xp: ArrayBackend, n_layers: int) -> None:
        layers = xp.arange(n_layers)
        self.n_layers = n_layers
        self.layers = xp.expand_dims(layers, 0)
        self.lo_grid = xp.reshape(layers, (1, 1, n_layers, 1))
        self.hi_grid = xp.reshape(layers, (1, 1, 1, n_layers))
        self.upper = xp.less_equal(xp.expand_dims(layers, 1), self.layers)


def interval_min(costs, xp: Optional[ArrayBackend] = None, tables=None):
    """Return ``M[..., lo, hi] = min(costs[..., lo..hi])`` (inf for lo > hi).

    ``costs`` has shape ``(..., L)``; the result appends an ``(L, L)``
    upper-triangular interval table.
    """
    xp = _xp(xp)
    tables = tables or LayerTables(xp, xp.shape(costs)[-1])
    # T[..., lo, k] = costs[..., k] where lo <= k else inf; a running
    # min over k then yields M[..., lo, hi] in one scan.
    masked = xp.where(tables.upper, xp.expand_dims(costs, -2), INF)
    return xp.cummin(masked, axis=-1)


def combine_children(
    child_costs,
    child_node_index,
    n_nodes: int,
    via_prefix,
    pin_lo,
    pin_hi,
    xp: Optional[ArrayBackend] = None,
    tables: Optional[LayerTables] = None,
) -> Tuple[object, object, object]:
    """Combine children cost vectors at a wave of tree nodes (Eq. 2, exact).

    At each node a via stack ``[lo, hi]`` must cover the departure layer
    ``ls``, every pin at the node, and the arrival layer chosen for each
    child; each child pays its cheapest layer inside the stack.

    Parameters
    ----------
    child_costs:
        ``(C, L)`` — stacked ``c*`` vectors of all children in the wave.
    child_node_index:
        ``(C,)`` host ints — row ``c`` belongs to wave-node
        ``child_node_index[c]``.  A node's rows are summed in row order,
        so the order of its children is part of the result's bits.
    n_nodes:
        Number of wave nodes ``B``.
    via_prefix:
        ``(B, L)`` — cumulative via cost at each node's G-cell
        (:meth:`repro.grid.cost.CostQuery.via_prefix_at`).
    pin_lo, pin_hi:
        ``(B,)`` — min/max pin layer at each node.  For a node without
        pins pass ``pin_lo = L`` and ``pin_hi = -1`` (no constraint).

    Returns
    -------
    combine, lo_choice, hi_choice:
        ``(B, L)`` each: ``combine[b, ls]`` is the bottom-children cost
        ``cbc`` for departure layer ``ls``; ``lo/hi_choice`` the argmin
        via-stack interval.
    """
    xp = _xp(xp)
    tables = tables or LayerTables(xp, xp.shape(via_prefix)[-1])
    n_layers = tables.n_layers
    if n_nodes == 0:
        empty = xp.zeros((0, n_layers))
        empty_int = xp.zeros((0, n_layers), dtype="int")
        return empty, empty_int, empty_int

    # V[b, lo, hi] = via-stack cost, defined on lo <= hi only.
    total = xp.subtract(
        xp.expand_dims(via_prefix, 1), xp.expand_dims(via_prefix, 2)
    )  # (B, lo, hi)
    if len(child_node_index):
        # S[b, lo, hi] = sum over children of min cost inside [lo, hi].
        child_sum = xp.zeros((n_nodes, n_layers, n_layers))
        child_tables = interval_min(xp.asarray(child_costs), xp=xp, tables=tables)
        child_tables = xp.where(xp.isfinite(child_tables), child_tables, _UNREACHABLE)
        xp.scatter_add(
            child_sum, xp.asarray(child_node_index, dtype="int"), child_tables
        )
        total = xp.add(total, child_sum)
    total = xp.where(tables.upper, total, INF)  # (B, L, L)

    # Feasibility per departure layer ls: lo <= min(ls, pin_lo), hi >= max(ls, pin_hi).
    pin_lo = xp.expand_dims(xp.asarray(pin_lo, dtype="int"), 1)
    pin_hi = xp.expand_dims(xp.asarray(pin_hi, dtype="int"), 1)
    need_shape = (n_nodes, n_layers, 1, 1)
    need_lo = xp.reshape(xp.minimum(tables.layers, pin_lo), need_shape)
    need_hi = xp.reshape(xp.maximum(tables.layers, pin_hi), need_shape)
    feasible = xp.logical_and(
        xp.less_equal(tables.lo_grid, need_lo),
        xp.greater_equal(tables.hi_grid, need_hi),
    )  # (B, ls, lo, hi)
    masked = xp.where(feasible, xp.expand_dims(total, 1), INF)
    flat = xp.reshape(masked, (n_nodes, n_layers, n_layers * n_layers))
    combine, best = xp.min_argmin(flat, axis=2)  # (B, L)
    lo_choice = xp.floor_divide(best, n_layers)
    hi_choice = xp.mod(best, n_layers)
    return combine, lo_choice, hi_choice


def minplus_vec_mat(w1, mat, xp: Optional[ArrayBackend] = None) -> Tuple[object, object]:
    """Eq. 7: ``R[..., lt] = min_ls (w1[..., ls] + mat[..., ls, lt])``.

    Returns ``(R, arg_ls)`` with the shape of ``w1``.
    """
    xp = _xp(xp)
    total = xp.add(xp.expand_dims(w1, -1), mat)  # (..., ls, lt)
    values, arg_ls = xp.min_argmin(total, axis=-2)
    return values, arg_ls


def minplus_two_bend(
    w1, mat, xp: Optional[ArrayBackend] = None
) -> Tuple[object, object, object]:
    """Evaluate both L-shape bend choices and merge elementwise.

    ``w1`` is ``(B, 2, L)`` and ``mat`` ``(B, 2, L, L)``: the Eq. 7
    operands of bend 0 and bend 1.  Returns ``(R, bend_choice, arg_ls)``
    with shapes ``(B, L)``; ``bend_choice`` is 0 for the first bend (also
    on a tie), 1 for the second.
    """
    xp = _xp(xp)
    per_bend, arg_per_bend = minplus_vec_mat(w1, mat, xp=xp)  # (B, 2, lt)
    values, bend_choice = xp.min_argmin(per_bend, axis=1)
    return values, bend_choice, xp.select_rows(arg_per_bend, bend_choice)


def zshape_reduce(
    w1,
    mat2,
    mat3,
    valid,
    xp: Optional[ArrayBackend] = None,
) -> Tuple[object, object, object, object]:
    """Eq. 14 + merge (Eq. 10) over padded candidate flows.

    Parameters
    ----------
    w1:
        ``(B, C, L)`` — ``cbc + first-segment`` cost per candidate.
    mat2:
        ``(B, C, L, L)`` — source-bend via + middle-segment cost (Eq. 12).
    mat3:
        ``(B, C, L, L)`` — target-bend via + last-segment cost (Eq. 13).
    valid:
        ``(B, C)`` bool — False marks padding candidates.

    Returns
    -------
    R, cand, arg_lb, arg_ls:
        all ``(B, L)``: cost per target layer, winning candidate index,
        and its middle/source layers.
    """
    xp = _xp(xp)
    step1 = xp.add(xp.expand_dims(w1, 3), mat2)  # (B, C, ls, lb)
    step1_min, arg_ls_full = xp.min_argmin(step1, axis=2)  # (B, C, lb)

    step2 = xp.add(xp.expand_dims(step1_min, 3), mat3)  # (B, C, lb, lt)
    step2_min, arg_lb_full = xp.min_argmin(step2, axis=2)  # (B, C, lt)

    masked = xp.where(xp.expand_dims(xp.asarray(valid, dtype="bool"), 2), step2_min, INF)
    values, cand = xp.min_argmin(masked, axis=1)  # (B, lt)

    # Gather the winning candidate's middle and source layers.
    arg_lb = xp.select_rows(arg_lb_full, cand)  # (B, lt)
    arg_ls = xp.gather_pairs(arg_ls_full, cand, arg_lb)  # (B, lt)
    return values, cand, arg_lb, arg_ls


__all__ = [
    "INF",
    "LayerTables",
    "interval_min",
    "combine_children",
    "minplus_vec_mat",
    "minplus_two_bend",
    "zshape_reduce",
]
