"""Router configuration and the paper's three evaluated presets.

* ``RouterConfig.cugr()`` — the baseline: the same two-stage flow with
  sequential scalar L-shape pattern routing on the CPU and the
  batch-barrier parallel strategy in rip-up-and-reroute;
* ``RouterConfig.fastgr_l()`` — FastGR_L: GPU-friendly batched L-shape
  kernels plus the task graph scheduler (runtime-oriented);
* ``RouterConfig.fastgr_h()`` — FastGR_H: hybrid-shape kernels with the
  selection technique (quality-oriented).

Thresholds ``t1``/``t2`` split two-pin nets by HPWL into small / medium
/ large (Sec. IV-D); the paper uses 100/500 on ~1000-cell grids.  The
defaults here are fractional (0.03/0.55 of the grid half-perimeter) so
one preset fits every benchmark size; integers >= 1 are absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.grid.cost import CostModel


@dataclass
class RouterConfig:
    """All knobs of the two-stage global-routing flow."""

    name: str = "fastgr_l"
    pattern_engine: str = "batch"  # "batch" (GPU kernels) | "sequential" (CPU)
    pattern_shape: str = "lshape"  # "lshape" | "hybrid" | "zshape"
    # Array substrate for the pattern kernels: any registered backend
    # ("numpy" or "python" built in).  All backends are
    # bit-identical by construction, so this changes *where* the DP
    # runs, never what it routes.
    backend: str = "numpy"
    use_selection: bool = True
    # Selection thresholds: values >= 1 are absolute two-pin HPWL bounds;
    # values in (0, 1) scale with the grid half-perimeter (the paper's
    # t1=100 / t2=500 on a ~1000-cell grid are ~0.1 / 0.5 fractional).
    t1: float = 0.03
    t2: float = 0.55
    sorting_scheme: str = "hpwl_asc"
    # Table V substitutes the ordering only in rip-up-and-reroute while
    # keeping the pattern stage fixed; None = reuse sorting_scheme.
    rrr_sorting_scheme: Optional[str] = None
    n_rrr_iterations: int = 3
    rrr_parallel: str = "taskgraph"  # "taskgraph" | "batch"
    edge_shift: bool = True
    # Per-net search engine of the rip-up stage: "dijkstra" is the
    # scalar heap search, "wavefront" computes the same shortest-path
    # distances as batched prefix-sum/cummin sweeps on the configured
    # array backend (slower than "dijkstra" in every end-to-end and
    # stress-region measurement on record).
    maze_engine: str = "dijkstra"
    maze_margin: int = 6
    # The P of the modelled task-graph / batch-barrier makespans the
    # reports carry; stages themselves execute on the calling thread.
    n_workers: int = 8
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.pattern_engine not in ("batch", "sequential"):
            raise ValueError(f"unknown pattern engine {self.pattern_engine!r}")
        if self.pattern_shape not in ("lshape", "hybrid", "zshape"):
            raise ValueError(f"unknown pattern shape {self.pattern_shape!r}")
        if self.rrr_parallel not in ("taskgraph", "batch"):
            raise ValueError(f"unknown RRR strategy {self.rrr_parallel!r}")
        from repro.maze import MAZE_ENGINES

        if self.maze_engine not in MAZE_ENGINES:
            raise ValueError(
                f"unknown maze engine {self.maze_engine!r}; available: "
                f"{', '.join(MAZE_ENGINES)}"
            )
        from repro.backend import available_backends

        if self.backend not in available_backends():
            raise ValueError(
                f"unknown array backend {self.backend!r}; available: "
                f"{', '.join(available_backends())}"
            )
        if self.t1 > self.t2:
            raise ValueError("selection thresholds must satisfy t1 <= t2")
        if self.n_rrr_iterations < 0:
            raise ValueError("negative iteration count")

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @staticmethod
    def cugr(**overrides: object) -> "RouterConfig":
        """The CUGR-style baseline (sequential scalar CPU pattern routing)."""
        config = RouterConfig(
            name="cugr",
            pattern_engine="sequential",
            pattern_shape="lshape",
            backend="python",
            rrr_parallel="batch",
        )
        return replace(config, **overrides) if overrides else config

    @staticmethod
    def fastgr_l(**overrides: object) -> "RouterConfig":
        """FastGR_L: batched L-shape kernels + task graph scheduler."""
        config = RouterConfig(name="fastgr_l")
        return replace(config, **overrides) if overrides else config

    @staticmethod
    def fastgr_h(**overrides: object) -> "RouterConfig":
        """FastGR_H: hybrid-shape kernels with the selection technique."""
        config = RouterConfig(
            name="fastgr_h", pattern_shape="hybrid", use_selection=True
        )
        return replace(config, **overrides) if overrides else config

    @staticmethod
    def fastgr_h_no_selection(**overrides: object) -> "RouterConfig":
        """Ablation of Table VI: hybrid patterns on every two-pin net."""
        config = RouterConfig(
            name="fastgr_h_no_selection",
            pattern_shape="hybrid",
            use_selection=False,
        )
        return replace(config, **overrides) if overrides else config


#: The named router presets: the CLI's ``--config`` and a service job's
#: ``config`` choose from these.
PRESETS = {
    "cugr": RouterConfig.cugr,
    "fastgr_l": RouterConfig.fastgr_l,
    "fastgr_h": RouterConfig.fastgr_h,
    "fastgr_h_no_selection": RouterConfig.fastgr_h_no_selection,
}


def resolve_config(name: str, **overrides) -> RouterConfig:
    """Build the named router preset (raises ``KeyError`` if unknown)."""
    if name not in PRESETS:
        raise KeyError(f"unknown config {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name](**overrides)


__all__ = ["RouterConfig", "PRESETS", "resolve_config"]
