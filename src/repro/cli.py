"""Command-line interface.

Five subcommands cover the everyday workflow::

    python -m repro route 18test5 --config fastgr_h --scale 0.25
    python -m repro route my_design.txt --config cugr
    python -m repro generate 18test10m --scale 0.5 -o my_design.txt
    python -m repro info my_design.txt
    python -m repro eco 18test5 --scale 0.25 --eco-preset tiny --verify
    python -m repro serve --port 8356

``route`` accepts either a benchmark name (Table III suite) or a path
to a design file in the text format; it prints the paper's headline
metrics and optionally writes the routed demand summary.  ``eco``
routes a design, applies a generated ECO perturbation to the warm
session, and re-routes incrementally; ``serve`` runs the JSON routing
service over warm sessions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.backend import available_backends
from repro.core.config import RouterConfig
from repro.core.router import GlobalRouter
from repro.maze import MAZE_ENGINES
from repro.netlist.benchmarks import BENCHMARKS, benchmark_names, load_benchmark
from repro.netlist.design import Design
from repro.netlist.io import read_design, write_design

_PRESETS = {
    "cugr": RouterConfig.cugr,
    "fastgr_l": RouterConfig.fastgr_l,
    "fastgr_h": RouterConfig.fastgr_h,
    "fastgr_h_no_selection": RouterConfig.fastgr_h_no_selection,
}


def _load(source: str, scale: float) -> Design:
    """Resolve ``source`` as a benchmark name or a design-file path."""
    if source in BENCHMARKS:
        return load_benchmark(source, scale=scale)
    path = Path(source)
    if not path.exists():
        raise SystemExit(
            f"error: {source!r} is neither a benchmark "
            f"({', '.join(benchmark_names())}) nor an existing file"
        )
    return read_design(path)


def _cmd_route(args: argparse.Namespace) -> int:
    design = _load(args.design, args.scale)
    overrides = {}
    if args.iterations is not None:
        overrides["n_rrr_iterations"] = args.iterations
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.maze_engine is not None:
        overrides["maze_engine"] = args.maze_engine
    config = _PRESETS[args.config](**overrides)
    result = GlobalRouter(design, config).run()

    print(f"design        : {result.design_name} ({design.n_nets} nets, "
          f"{design.graph.nx}x{design.graph.ny}x{design.n_layers})")
    print(f"router        : {result.config_name}")
    print(f"backend       : {config.backend}")
    print(f"pattern stage : {result.pattern_time:.3f} s "
          f"({result.pattern_batches} fused batches, "
          f"{result.pattern_batched_nets} nets, "
          f"{result.pattern_kernel_launches} kernel launches)")
    print(f"maze engine   : {result.maze_engine} "
          f"({result.maze_nodes_visited} nodes visited)")
    print(f"maze stage    : {result.maze_time:.3f} s (modelled parallel; "
          f"sequential {result.maze_time_sequential:.3f} s)")
    cost = result.cost_stats
    print(f"cost snapshot : {cost.get('rebuilds', 0):.0f} rebuilds, "
          f"{cost.get('refreshed_edges', 0):,.0f} edges refreshed, "
          f"{cost.get('seconds', 0.0):.3f} s")
    print(f"total         : {result.total_time:.3f} s")
    print(f"nets to rip up: {result.nets_to_ripup}")
    print(f"wirelength    : {result.metrics.wirelength}")
    print(f"vias          : {result.metrics.n_vias}")
    print(f"shorts        : {result.metrics.shorts:.2f}")
    print(f"score (Eq.15) : {result.metrics.score:,.1f}")

    disconnected = sum(
        1
        for net in design.netlist
        if not result.routes[net.name].connects([p.as_node() for p in net.pins])
    )
    print(f"connectivity  : {design.n_nets - disconnected}/{design.n_nets} nets")

    reports = result.stage_reports()
    if reports:
        from repro.eval.report import format_stage_reports

        print()
        print(format_stage_reports(reports))
    if result.iterations:
        from repro.eval.report import format_rrr_iterations

        print()
        print(format_rrr_iterations(result.iterations))

    if args.guides:
        from repro.detail.guides import write_guides

        write_guides(result.routes, design.graph, args.guides)
        print(f"guides        : written to {args.guides}")
    return 1 if disconnected else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    design = load_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    write_design(design, args.output)
    print(f"wrote {design.n_nets} nets "
          f"({design.graph.nx}x{design.graph.ny}x{design.n_layers}) "
          f"to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    design = _load(args.design, args.scale)
    pins = design.netlist.total_pins()
    print(f"design : {design.name}")
    print(f"grid   : {design.graph.nx} x {design.graph.ny}, "
          f"{design.n_layers} layers")
    print(f"nets   : {design.n_nets}")
    print(f"pins   : {pins} ({pins / max(design.n_nets, 1):.2f} per net)")
    largest = max(design.netlist, key=lambda net: net.hpwl)
    print(f"largest net: {largest.name} (hpwl={largest.hpwl}, "
          f"{largest.n_pins} pins)")
    return 0


def _cmd_eco(args: argparse.Namespace) -> int:
    from repro.netlist.generator import ECO_PRESETS, perturb_design
    from repro.session import DesignHandle, RoutingSession

    design = _load(args.design, args.scale)
    config = _PRESETS[args.config]()
    handle = DesignHandle.from_design(design)
    with RoutingSession(handle, config) as session:
        base = session.run()
        print(f"base route    : score {base.metrics.score:,.1f} "
              f"({base.total_time:.3f} s)")
        delta = perturb_design(
            session.design, ECO_PRESETS[args.eco_preset], seed=args.eco_seed
        )
        eco = session.eco(delta)
        print(f"eco delta     : -{eco.n_removed} +{eco.n_added} "
              f"~{eco.n_moved} nets ({args.eco_preset!r}, "
              f"seed {args.eco_seed})")
        print(f"eco re-route  : score {eco.result.metrics.score:,.1f} "
              f"({eco.elapsed:.3f} s)")
        print(f"cache reuse   : {eco.cache_hits} hits / "
              f"{eco.cache_misses} misses "
              f"({eco.reuse_fraction:.0%} replayed)")
        if args.verify:
            from repro.service.jobs import demand_grids_equal

            cold = session.cold_design()
            cold_result = GlobalRouter(cold, config).run()
            ok = (
                eco.result.digest() == cold_result.digest()
                and demand_grids_equal(session.graph, cold.graph)
                and eco.result.metrics.score == cold_result.metrics.score
            )
            print(f"verify        : cold route {cold_result.total_time:.3f} s, "
                  f"{'bit-identical' if ok else 'MISMATCH'}")
            if not ok:
                return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.api import serve

    serve(host=args.host, port=args.port, max_sessions=args.max_sessions)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FastGR reproduction: CPU-GPU global routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="route a benchmark or design file")
    route.add_argument("design", help="benchmark name or design-file path")
    route.add_argument(
        "--config", choices=sorted(_PRESETS), default="fastgr_l",
        help="router preset (default: fastgr_l)",
    )
    route.add_argument("--scale", type=float, default=0.25,
                       help="benchmark scale factor (default 0.25)")
    route.add_argument("--iterations", type=int, default=None,
                       help="override the number of RRR iterations")
    route.add_argument(
        "--backend", choices=available_backends(), default=None,
        help="array backend for the pattern kernels "
        "(default: the preset's choice)",
    )
    route.add_argument(
        "--maze-engine", choices=MAZE_ENGINES, default=None,
        help="per-net search engine of the rip-up stage: 'dijkstra' is "
        "the scalar heap search, 'wavefront' computes the same "
        "shortest-path distances as batched sweeps on the array "
        "backend (default: the preset's choice)",
    )
    route.add_argument("--guides", default=None, metavar="FILE",
                       help="write routing guides for detailed routing")
    route.set_defaults(func=_cmd_route)

    generate = sub.add_parser("generate", help="write a benchmark to a file")
    generate.add_argument("benchmark", choices=benchmark_names())
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--scale", type=float, default=0.25)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    info = sub.add_parser("info", help="print design statistics")
    info.add_argument("design", help="benchmark name or design-file path")
    info.add_argument("--scale", type=float, default=0.25)
    info.set_defaults(func=_cmd_info)

    from repro.netlist.generator import ECO_PRESETS

    eco = sub.add_parser(
        "eco", help="route, apply an ECO edit, and re-route incrementally"
    )
    eco.add_argument("design", help="benchmark name or design-file path")
    eco.add_argument("--config", choices=sorted(_PRESETS), default="fastgr_l")
    eco.add_argument("--scale", type=float, default=0.25,
                     help="benchmark scale factor (default 0.25)")
    eco.add_argument("--eco-preset", choices=sorted(ECO_PRESETS),
                     default="tiny",
                     help="generated perturbation size (default: tiny)")
    eco.add_argument("--eco-seed", type=int, default=0,
                     help="perturbation seed (default 0)")
    eco.add_argument("--verify", action="store_true",
                     help="also cold-route the edited design and assert "
                     "the incremental result bit-identical")
    eco.set_defaults(func=_cmd_eco)

    serve = sub.add_parser(
        "serve", help="run the JSON routing service over warm sessions"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8356)
    serve.add_argument("--max-sessions", type=int, default=4, metavar="N",
                       help="warm sessions kept before LRU eviction "
                       "(default 4)")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
