"""Result checks from outside the router.

Run once per workload per invocation, outside every timed region.  A
check never trusts a figure the router reported about itself: demand is
replayed from the routes, metrics are measured again, and a warm session
is compared with a cold route of the same netlist.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import Design, GlobalRouter, GridGraph, RoutingMetrics, RoutingResult

from workloads import RunRecord, Workload


def _demand_equal(a: GridGraph, b: GridGraph) -> bool:
    return all(
        np.array_equal(a.wire_demand[layer], b.wire_demand[layer])
        for layer in range(a.n_layers)
    ) and np.array_equal(a.via_demand, b.via_demand)


def disconnected_nets(design: Design, result: RoutingResult) -> List[str]:
    """Names of nets whose route does not connect all their pins."""
    bad = []
    for net in design.netlist:
        route = result.routes.get(net.name)
        if route is None or not route.connects([p.as_node() for p in net.pins]):
            bad.append(net.name)
    return bad


def check_result(design: Design, result: RoutingResult) -> List[str]:
    """Invariants any result must satisfy, whatever produced it."""
    problems = []
    if set(result.routes) != {net.name for net in design.netlist}:
        problems.append("routes and netlist name different nets")

    graph = design.graph
    replay = GridGraph(graph.nx, graph.ny, graph.stack)
    for route in result.routes.values():
        route.commit(replay)
    if not _demand_equal(replay, graph):
        problems.append("grid demand differs from the sum of the result's routes")
    if min(float(d.min()) for d in (*graph.wire_demand, graph.via_demand)) < 0:
        problems.append("negative demand on the grid")

    measured = RoutingMetrics.measure(result.routes, graph)
    if measured != result.metrics:
        problems.append(f"metrics {result.metrics} do not recompute: {measured}")
    return problems


def check_counters(workload: Workload, result: RoutingResult) -> List[str]:
    """Each maze workload must have gone through its own engine."""
    if result.nets_to_ripup == 0:
        return []
    batches = result.maze_batches
    if workload.config().maze_engine == "wavefront":
        return [] if batches > 0 else ["wavefront engine ran no stacked batch"]
    return [] if batches == 0 else [f"dijkstra engine reported {batches} batches"]


def check_warm_equals_cold(record: RunRecord) -> List[str]:
    """The session's final state equals a cold route of its netlist."""
    session, warm = record.session, record.results[-1]
    cold_design = session.cold_design()
    cold = GlobalRouter(cold_design, session.config).run()
    problems = []
    if set(cold.routes) != set(warm.routes) or any(
        cold.routes[name].wires != route.wires or cold.routes[name].vias != route.vias
        for name, route in warm.routes.items()
    ):
        problems.append("warm ECO routes differ from a cold route")
    if not _demand_equal(cold_design.graph, session.graph):
        problems.append("warm ECO demand differs from a cold route")
    return problems


def check_record(workload: Workload, record: RunRecord) -> Tuple[List[str], int]:
    """All checks on one repeat that ran: ``(problems, nets the checks fail)``.

    The count is what the checks add to the repeat's own rip-up failures
    (``IterationStats.n_failed``, counted when it ran): the disconnected
    nets, or every remaining net when the result broke an invariant.
    """
    last = record.results[-1]
    problems = check_result(record.design, last)
    problems += check_counters(workload, last)
    if record.session is not None:
        problems += check_warm_equals_cold(record)
    if problems:
        return problems, record.nets_attempted - record.maze_failures
    bad = disconnected_nets(record.design, last)
    if bad:
        problems.append(f"{len(bad)} nets disconnected, e.g. {bad[:3]}")
    return problems, len(bad)
