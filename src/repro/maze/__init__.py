"""Rip-up-and-reroute substrate: 3-D maze routing (Sec. III-G).

Nets that the pattern stage leaves with violations are ripped up and
rerouted with a full 3-D shortest-path search on the grid graph,
iterating until routing closure (the paper runs three iterations).

Two interchangeable search engines implement the per-net search:

* ``"dijkstra"`` — the scalar heap Dijkstra (:class:`MazeRouter`);
* ``"wavefront"`` — batched sweep relaxation on the array backend
  (:class:`WavefrontMazeRouter`): the same distances, computed as
  dense prefix-sum/``cummin`` segment sweeps.
"""

from typing import Optional

from repro.grid.cost import CostModel
from repro.grid.graph import GridGraph
from repro.maze.router import MazeRouter, MazeRoutingError
from repro.maze.wavefront import WavefrontMazeRouter
from repro.maze.ripup import RipupReroute, find_violating_nets

#: Names accepted by ``RouterConfig.maze_engine`` / ``--maze-engine``.
MAZE_ENGINES = ("dijkstra", "wavefront")


def make_maze_router(
    engine: str,
    graph: GridGraph,
    cost_model: Optional[CostModel] = None,
    margin: int = 6,
    backend: str = "numpy",
    device=None,
) -> MazeRouter:
    """Instantiate the maze engine registered under ``engine``."""
    if engine == "dijkstra":
        return MazeRouter(graph, cost_model, margin=margin)
    if engine == "wavefront":
        return WavefrontMazeRouter(
            graph,
            cost_model,
            margin=margin,
            backend=backend,
            device=device,
        )
    raise ValueError(
        f"unknown maze engine {engine!r}; available: {', '.join(MAZE_ENGINES)}"
    )


__all__ = [
    "MAZE_ENGINES",
    "MazeRouter",
    "MazeRoutingError",
    "WavefrontMazeRouter",
    "RipupReroute",
    "find_violating_nets",
    "make_maze_router",
]
