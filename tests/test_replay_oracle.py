"""The content key as the oracle of the structural ECO replay.

Hypothesis drives random delta sequences — moves, adds, removes,
overlapping boxes, a removed net re-added — through ONE warm session
with the content-key oracle of ``tests/replay_oracle.py`` armed.  After
every ECO:

* the session's route digest equals a cold route's;
* every net the replay called clean would have been a content-key hit
  with the same route (``pattern_net_key`` over ``demand_signature``,
  the keys the replay stopped computing, looked up among the previous
  replay's keys — the memory the structural state keeps);
* over the sequence, the nets the replay recomputed stay within 1.25x
  of what content addressing would have recomputed.

Derandomized, so tier-1 sees the same sequences on every run.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.netlist.delta import NetlistDelta
from repro.netlist.generator import DesignSpec, generate_design
from repro.netlist.net import Net, Pin
from repro.session import DesignHandle, RoutingSession, SessionContext
from tests.replay_oracle import ReplayOracle

N = 20  # grid edge
LAYERS = 5

SPEC = DesignSpec(
    name="replay-oracle", nx=N, ny=N, n_layers=LAYERS, n_nets=45,
    wire_capacity=3.0, seed=3,
)
HANDLE = DesignHandle.from_design(generate_design(SPEC))

coord = st.integers(0, N - 1)
pins = st.lists(
    st.builds(Pin, coord, coord, st.integers(0, LAYERS - 1)), min_size=2, max_size=4
)
edit = st.one_of(
    st.tuples(st.just("move"), st.integers(0, 10**6), pins),
    st.tuples(st.just("add"), pins),
    st.tuples(st.just("remove"), st.integers(0, 10**6)),
    st.tuples(st.just("readd"), st.integers(0, 10**6), st.booleans()),
)
edits = st.lists(st.lists(edit, min_size=1, max_size=4), min_size=1, max_size=3)


def make_delta(netlist, removed_pool, ops, step):
    """Turn drawn ops into a valid delta against ``netlist``.

    ``removed_pool`` holds nets removed earlier in the sequence; a
    ``readd`` brings one back under its old name, with its old pins or
    with the pins of a live net (so its box overlaps that net's).
    """
    names = [net.name for net in netlist]
    live = {net.name: net for net in netlist}
    used, removed, added, moved = set(), [], [], []
    for k, op in enumerate(ops):
        kind = op[0]
        if kind in ("move", "remove"):
            name = names[op[1] % len(names)]
            if name in used or len(names) - len(removed) <= 2:
                continue
            used.add(name)
            if kind == "move":
                moved.append(Net(name, op[2]))
            else:
                removed.append(name)
        elif kind == "add":
            added.append(Net(f"eco{step}_{k}", op[1]))
        elif removed_pool:
            old = removed_pool.pop(op[1] % len(removed_pool))
            pins_from = old if op[2] else live[names[op[1] % len(names)]]
            added.append(Net(old.name, pins_from.pins))
    removed_pool.extend(live[name] for name in removed)
    return NetlistDelta(removed=removed, added=added, moved=moved)


@settings(
    max_examples=12, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(edits)
# A moved net that keeps overlapping nets routed after it: only the
# changed-route propagation, condition (c), catches these.
@example([[("move", 0, [Pin(0, 0, 0), Pin(4, 8, 0)])]])
@example([[("move", 0, [Pin(0, 0, 0), Pin(4, 3, 0)])]])
def test_structural_verdicts_agree_with_the_content_key(sequence):
    config = RouterConfig.fastgr_l()
    oracle = ReplayOracle()
    context = SessionContext()
    with oracle.armed(), RoutingSession(HANDLE, config, context=context) as session:
        session.run()
        removed_pool = []
        misses_before = oracle.content_misses
        recomputed_before = context.replay.recomputed
        for step, ops in enumerate(sequence):
            delta = make_delta(session.netlist, removed_pool, ops, step)
            eco = session.eco(delta)
            cold = GlobalRouter(session.cold_design(), config).run()
            assert eco.result.digest() == cold.digest()
            assert oracle.unsound == 0
        assert oracle.clean > 0  # the oracle saw the replay's verdicts
        recomputed = context.replay.recomputed - recomputed_before
        content_misses = oracle.content_misses - misses_before
        assert recomputed <= 1.25 * content_misses, (recomputed, content_misses)
