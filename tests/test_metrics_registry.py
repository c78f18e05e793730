"""The run's one counter record: names from one registry, one tracker
per run.

* Every counter and timer name is declared in :mod:`repro.metrics`; no
  other module under ``src/repro`` passes a string literal to
  ``get_counter`` / ``get_timer``.
* ``route_design`` creates the tracker, so a result reports its own run
  only — warm sessions included — and a cost snapshot or rip-up engine
  built on its own still counts, into a tracker of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro import metrics
from repro.core.config import RouterConfig
from repro.grid.cost import CostModel, CostQuery
from repro.maze.ripup import RipupReroute
from repro.netlist.generator import ECO_PRESETS, perturb_design
from repro.pattern.batch import BatchPatternRouter
from repro.session import DesignHandle, RoutingSession
from tests.conftest import make_net
from tests.test_golden_counters import congested_design, record

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def literal_metric_names(path: Path):
    """``(line, name)`` of every literal ``get_counter``/``get_timer`` name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get_counter", "get_timer")
            and node.args
            and isinstance(node.args[0], (ast.Constant, ast.JoinedStr))
        ):
            yield node.lineno, ast.unparse(node.args[0])


def test_metric_names_come_from_the_registry():
    registry = SRC / "metrics.py"
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path != registry
        for line, name in literal_metric_names(path)
    ]
    assert found == []


def test_registry_names_are_unique():
    names = {
        key: value
        for key, value in vars(metrics).items()
        if key.isupper() and isinstance(value, str)
    }
    assert len(set(names.values())) == len(names)


def test_the_lint_sees_literals(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "t.get_counter('a.b').increment()\n"
        "t.get_timer(f'x.{y}')\n"
        "t.get_counter(metrics.MAZE_BATCHES)\n"
    )
    assert sorted(line for line, _ in literal_metric_names(probe)) == [1, 2]


def own_launches(result) -> bool:
    """A run's device is fresh: the stage counters must add up to it."""
    return result.device_stats["n_launches"] == result.pattern_kernel_launches + sum(
        it.kernel_launches for it in result.iterations
    )


def test_session_runs_report_only_their_own_counts():
    """Two back-to-back runs and an ECO: nothing carries over.

    The ECO after two runs must count exactly what the same ECO counts
    after one (the replay and route-cache state follow the design, not
    the history), and every result holds one full cost rebuild — the
    stage's own snapshot.
    """
    config = RouterConfig.fastgr_l()
    results = {}
    for n_runs in (1, 2):
        handle = DesignHandle.from_design(congested_design())
        with RoutingSession(handle, config) as session:
            runs = [session.run() for _ in range(n_runs)]
            delta = perturb_design(session.design, ECO_PRESETS["small"], seed=1)
            results[n_runs] = runs + [session.eco(delta).result]
    once, twice = results[1], results[2]
    assert record(twice[-1]) == record(once[-1])
    assert record(twice[0]) == record(once[0])
    for result in twice:
        assert result.cost_stats["full_rebuilds"] == 1
        assert result.nets_to_ripup > 0
        assert own_launches(result)
    # The repeat run replays its pattern nets: fewer than the first,
    # not a running total.
    assert twice[1].pattern_batched_nets < twice[0].pattern_batched_nets


def test_a_standalone_cost_query_counts(grid):
    query = CostQuery(grid, CostModel())
    assert query.tracker.counters()[metrics.COST_FULL_REBUILDS] == 1
    query.rebuild()
    counters, timers = query.tracker.snapshot()
    assert counters[metrics.COST_FULL_REBUILDS] == 2
    assert timers[metrics.COST_S] > 0.0


def test_an_engine_shares_its_tracker_with_its_snapshot(grid):
    router = BatchPatternRouter(grid, edge_shift=False)
    assert router.query.tracker is router.tracker


def test_a_standalone_ripup_engine_counts(grid):
    net = make_net("a", [(1, 1, 0), (9, 7, 0)])
    engine = RipupReroute(grid, {"a": net}, margin=2)
    routes = {"a": engine.maze.route_net(net)}
    routes["a"].commit(grid)
    assert engine.rip_and_reroute(routes, "a") is not None
    assert engine.tracker.counters()[metrics.MAZE_NODES_VISITED] > 0
