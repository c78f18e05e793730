"""The selection technique (Sec. IV-D).

Hybrid patterns on *every* two-pin net hurt both runtime (a handful of
huge nets generate thousands of candidate flows) and quality (small
nets routed flexibly early steal resources from the large nets routed
later).  The fix: split two-pin nets by bounding-box HPWL at thresholds
``t1 < t2`` and apply the hybrid pattern only to the medium band;
small and large nets keep the L-shape pattern.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config import RouterConfig
from repro.grid.graph import GridGraph
from repro.pattern.twopin import HpwlSelector, ModeSelector, PatternMode, constant_mode


def resolve_thresholds(
    config: RouterConfig, graph: Optional[GridGraph] = None
) -> Tuple[int, int]:
    """Return the absolute ``(t1, t2)`` HPWL thresholds for a design.

    Integer thresholds (>= 1) are absolute HPWL values.  Fractional
    thresholds in ``(0, 1)`` scale with the design: they are multiplied
    by the grid half-perimeter ``(nx + ny) / 2`` — the paper's 100/500
    on a ~1000-cell grid corresponds to ~0.1/0.5 here — so one preset
    fits every benchmark size.
    """
    t1, t2 = config.t1, config.t2
    if (0 < t1 < 1 or 0 < t2 < 1) and graph is None:
        raise ValueError("fractional thresholds need the design's grid")
    span = 0.0 if graph is None else (graph.nx + graph.ny) / 2.0
    abs_t1 = int(round(t1 * span)) if 0 < t1 < 1 else int(t1)
    abs_t2 = int(round(t2 * span)) if 0 < t2 < 1 else int(t2)
    return max(1, abs_t1), max(1, abs_t2)


def make_mode_selector(
    config: RouterConfig, graph: Optional[GridGraph] = None
) -> ModeSelector:
    """Build the per-two-pin-net pattern selector for ``config``."""
    if config.pattern_shape == "lshape":
        return constant_mode(PatternMode.LSHAPE)
    rich_mode = (
        PatternMode.HYBRID if config.pattern_shape == "hybrid" else PatternMode.ZSHAPE
    )
    if not config.use_selection:
        return constant_mode(rich_mode)

    t1, t2 = resolve_thresholds(config, graph)
    return HpwlSelector(rich_mode, t1, t2)


__all__ = ["make_mode_selector", "resolve_thresholds"]
