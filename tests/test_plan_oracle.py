"""The array level planner against the per-net planning oracle.

:func:`~repro.pattern.plan.plan_level` plans nets with at most three
distinct pin G-cells in closed form and lays a whole level out with
array ops.  Hypothesis drives generated small batches — one-, two- and
three-cell nets, collinear pins, several pins (and layers) in one
G-cell, pins on box edges, Prim distance ties and median-point ties,
beside a few nets of four or more cells — through both planners
(``tests/plan_oracle.py``) and asserts:

* the same batch state: node table, waves, mode bounds, child lists and
  slots, descent levels, roots, and the read footprint as sets of
  ``(box, line)`` per family;
* the same routes, digest and demand when the batch is routed and
  committed.

Derandomized, so tier-1 sees the same batches on every run.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.net import Net, Pin
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.plan import plan_jobs, plan_level
from repro.pattern.twopin import HpwlSelector, PatternMode
from tests.plan_oracle import assert_states_equal, build_waves, per_net_planning, plan_per_net

N = 16  # grid edge
LAYERS = 4


def grid(seed: int) -> GridGraph:
    """A graph with some demand already on it (edge shifting reads it)."""
    graph = GridGraph(N, N, LayerStack(LAYERS), wire_capacity=3.0)
    rng = np.random.default_rng(seed)
    for demand in graph.wire_demand:
        demand[...] = rng.integers(0, 4, size=demand.shape)
    graph.via_demand[...] = rng.integers(0, 3, size=graph.via_demand.shape)
    return graph


def mixed_mode(src, dst):
    """A plain function selector (no ``codes``): L, Z and hybrid mixed."""
    hpwl = abs(src.x - dst.x) + abs(src.y - dst.y)
    if hpwl <= 2:
        return PatternMode.LSHAPE
    return PatternMode.ZSHAPE if (src.x + dst.y) % 2 else PatternMode.HYBRID


SELECTORS = {
    "L": HpwlSelector(PatternMode.LSHAPE),
    "band": HpwlSelector(PatternMode.HYBRID, 2, 5),
    "mixed": mixed_mode,
}

# Cells drawn from a 5x5 window make collinear pins, Prim ties and
# medians on a pin common; a cell may be drawn twice (duplicate-cell
# pins) and carries pins on one to three layers.
cell = st.tuples(st.integers(0, 4), st.integers(0, 4))
cell_pins = st.tuples(cell, st.lists(st.integers(0, LAYERS - 1), min_size=1, max_size=3))
net_spec = st.tuples(
    st.integers(0, N - 5), st.integers(0, N - 5),
    st.one_of(
        st.lists(cell_pins, min_size=1, max_size=3),
        st.lists(cell_pins, min_size=3, max_size=3),
        st.lists(cell_pins, min_size=4, max_size=6),
    ),
)
batch = st.lists(net_spec, min_size=1, max_size=8)


def make_nets(specs):
    return [
        Net(f"n{i}", [Pin(x0 + x, y0 + y, layer) for (x, y), layers in cells for layer in layers])
        for i, (x0, y0, cells) in enumerate(specs)
    ]


def digest(routes) -> str:
    sha = hashlib.sha256()
    for name, route in routes.items():
        sha.update(repr((
            name,
            [(w.layer, w.x1, w.y1, w.x2, w.y2) for w in route.wires],
            [(v.x, v.y, v.lo, v.hi) for v in route.vias],
        )).encode())
    return sha.hexdigest()


def route(nets, mode_fn, seed):
    """Route and commit ``nets`` as one masked batch on a fresh grid."""
    graph = grid(seed)
    router = BatchPatternRouter(graph, backend="numpy")
    routes = router.route_batch(nets, mode_fn, cost_boxes=[net.bbox for net in nets])
    return routes, graph


# Every three-cell tree: the centre cases without, then with, a Steiner point.
THREE_CELL_TREES = [
    (1, 1, [((0, 0), [0]), ((0, 1), [1]), ((0, 2), [2])]),
    (1, 1, [((0, 0), [0]), ((0, 1), [1]), ((1, 0), [2])]),
    (1, 1, [((0, 1), [0]), ((1, 0), [1]), ((1, 1), [2])]),
    (1, 1, [((0, 0), [0]), ((0, 2), [1]), ((1, 0), [2])]),
    (1, 1, [((0, 0), [0]), ((0, 3), [1]), ((1, 2), [2])]),
    (1, 1, [((0, 0), [0]), ((0, 2), [1]), ((1, 1), [2])]),
    (1, 1, [((0, 0), [0]), ((0, 4), [1]), ((1, 2), [2])]),
    (1, 1, [((0, 0), [0]), ((0, 3), [1]), ((1, 1), [2])]),
]
# One spec per tie the closed forms must break as Steiner/ordering do.
TIES = [
    [(2, 2, [((0, 0), [0]), ((2, 0), [1]), ((0, 2), [2])])],  # d01 == d02
    [(2, 2, [((0, 0), [0]), ((3, 1), [1]), ((1, 3), [0])])],  # d01 == d02, d12 > d01
    [(2, 2, [((0, 0), [0]), ((2, 2), [1]), ((4, 0), [2])])],  # d12 == d02
    [(2, 2, [((0, 2), [0]), ((2, 0), [1]), ((4, 2), [2])])],  # d12 == d01
    [(2, 2, [((0, 0), [0]), ((1, 1), [1]), ((4, 4), [2])])],  # median on a pin
    [(2, 2, [((0, 0), [0]), ((0, 2), [1]), ((0, 4), [3])])],  # collinear
    [(2, 2, [((1, 1), [0, 3]), ((1, 1), [2])])],  # one cell, several pins
    [(2, 2, [((0, 4), [1]), ((4, 0), [1, 1]), ((2, 2), [0])])],
]


@settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(batch, st.sampled_from(sorted(SELECTORS)), st.integers(0, 3))
@example(TIES[0] + TIES[1] + TIES[2] + TIES[3], "band", 0)
@example(TIES[4] + TIES[5] + TIES[6] + TIES[7], "mixed", 1)
@example(THREE_CELL_TREES, "band", 2)
def test_array_plan_equals_per_net_plan(specs, selector, seed):
    nets = make_nets(specs)
    mode_fn = SELECTORS[selector]
    graph = grid(seed)
    router = BatchPatternRouter(graph, backend="numpy")
    mine = plan_level(nets, mode_fn, LAYERS, N, router.make_job, first_box=3)
    assert_states_equal(mine, plan_per_net(router, nets, mode_fn, first_box=3))
    # Planned jobs lay out the same way through either layout.
    jobs = [router.make_job(net) for net in nets]
    laid_out = plan_jobs(jobs, mode_fn, LAYERS, N)
    assert [job.row0 for job in jobs] == [
        int(np.flatnonzero(laid_out.job == i)[0]) for i in range(len(nets))
    ]
    assert_states_equal(laid_out, build_waves(
        [router.make_job(net) for net in nets], mode_fn, LAYERS, N
    ))

    routes, graph = route(nets, mode_fn, seed)
    with per_net_planning():
        expected, oracle_graph = route(nets, mode_fn, seed)
    for name, expect in expected.items():
        assert routes[name].wires == expect.wires and routes[name].vias == expect.vias
    assert digest(routes) == digest(expected)
    assert np.array_equal(graph.demand_flat, oracle_graph.demand_flat)
