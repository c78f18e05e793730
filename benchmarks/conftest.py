"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_table*.py`` / ``bench_fig*.py`` regenerates one table or
figure of the paper.  This conftest provides:

* ``routed(design, config)`` — a session-wide cache of router runs, so
  e.g. the Table VII, VIII and IX benches share the same twelve-design
  sweep instead of re-routing;
* ``register_table(name, text)`` — collects rendered tables, writes
  them to ``benchmarks/results/<name>.txt`` and prints them after the
  pytest run (past output capture), so ``bench_output.txt`` contains
  every reproduced table; every call also emits a machine-readable
  ``BENCH_<name>.json`` record (name, config key, metrics, timestamp)
  next to the ``.txt``.  A record whose metrics carry a truthy
  ``quick`` (a ``*_QUICK`` smoke run) goes to the git-ignored
  ``benchmarks/results/quick/`` instead, so a smoke run never replaces
  the committed full-mode record that ``collect.py`` aggregates;
* ``BENCH_SCALE`` — suite scale factor, settable via the
  ``REPRO_BENCH_SCALE`` environment variable (default 0.25: the whole
  harness completes in minutes on a laptop; raise it to approach the
  paper's relative numbers more closely).
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import RouterConfig
from repro.core.result import RoutingResult
from repro.core.router import GlobalRouter
from repro.netlist.benchmarks import load_benchmark
from repro.netlist.design import Design

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
RESULTS_DIR = Path(__file__).parent / "results"

_TABLES: List[Tuple[str, str]] = []
_RUN_CACHE: Dict[Tuple[str, str], RoutingResult] = {}
_DESIGN_CACHE: Dict[Tuple[str, str], Design] = {}


def register_table(
    name: str,
    text: str,
    *,
    config: "Optional[RouterConfig | str]" = None,
    metrics: Optional[dict] = None,
) -> None:
    """Record a rendered table for the end-of-run report.

    Besides the human-readable ``<name>.txt``, every registration also
    writes a machine-readable ``BENCH_<name>.json`` record so CI and
    regression tooling can diff benchmark runs without parsing tables.
    ``config`` (a :class:`RouterConfig` or a pre-built key string) and
    ``metrics`` (a flat dict of numbers) enrich the record when the
    bench has a single primary configuration / headline numbers.
    Records stamped ``metrics["quick"]`` land in ``results/quick/``.
    """
    _TABLES.append((name, text))
    out_dir = RESULTS_DIR / "quick" if (metrics or {}).get("quick") else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    record = {
        "name": name,
        "config_key": (
            config_key(config) if isinstance(config, RouterConfig) else config
        ),
        "metrics": dict(metrics) if metrics else {},
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    (out_dir / f"BENCH_{name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def config_key(config: RouterConfig) -> str:
    """A cache key: every field of ``config``, in declaration order.

    Fields that leave routes bit-identical still belong in it —
    ``n_workers``, for one, changes the modelled runtimes the benches
    report — so two sweep points differing in any field never share a
    cached run.
    """
    return "|".join(str(getattr(config, field.name)) for field in fields(config))


def fresh_design(name: str, scale: float = BENCH_SCALE) -> Design:
    """Generate a benchmark design (never cached: routers mutate it)."""
    return load_benchmark(name, scale=scale)


def routed(design_name: str, config: RouterConfig, scale: float = BENCH_SCALE) -> RoutingResult:
    """Route ``design_name`` under ``config``, caching by configuration."""
    key = (f"{design_name}@{scale}", config_key(config))
    if key not in _RUN_CACHE:
        design = fresh_design(design_name, scale)
        _RUN_CACHE[key] = GlobalRouter(design, config).run()
        _DESIGN_CACHE[key] = design
    return _RUN_CACHE[key]


def routed_with_design(
    design_name: str, config: RouterConfig, scale: float = BENCH_SCALE
) -> Tuple[Design, RoutingResult]:
    """Like :func:`routed` but also return the (mutated) design."""
    result = routed(design_name, config, scale)
    key = (f"{design_name}@{scale}", config_key(config))
    return _DESIGN_CACHE[key], result


def geomean(values) -> float:
    """Geometric mean (the paper's ratio aggregation), guarding zeros."""
    import math

    cleaned = [v for v in values if v > 0]
    if not cleaned:
        return 0.0
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every registered table after capture is released."""
    for name, text in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"==== {name} ====")
        for line in text.splitlines():
            terminalreporter.write_line(line)
