"""A complete global-routing problem instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

import numpy as np

from repro.grid.graph import GridGraph
from repro.netlist.net import Net, Netlist, pin_table


def check_pins(nets: Iterable[Net], graph: GridGraph) -> None:
    """Raise ``ValueError`` if a pin of ``nets`` lies off ``graph``'s
    grid or outside its layer stack, naming the first such pin in net
    order."""
    if not isinstance(nets, Netlist):
        nets = tuple(nets)
    (x, y, layer), counts = nets.pin_table() if isinstance(nets, Netlist) else pin_table(nets)
    # A negative coordinate wraps to a huge unsigned one.
    off_grid = (x.view(np.uintp) >= graph.nx) | (y.view(np.uintp) >= graph.ny)
    bad = off_grid | (layer.view(np.uintp) >= graph.n_layers)
    if not bad.any():
        return
    first = int(bad.argmax())
    index = int(np.searchsorted(np.cumsum(counts), first, side="right"))
    net = nets[index]
    pin = net.pins[first - int(counts[:index].sum())]
    if off_grid[first]:
        raise ValueError(
            f"net {net.name!r} pin ({pin.x},{pin.y}) off the {graph.nx}x{graph.ny} grid"
        )
    raise ValueError(
        f"net {net.name!r} pin layer {pin.layer} outside the {graph.n_layers}-layer stack"
    )


@dataclass
class Design:
    """A named routing problem: grid graph + netlist (+ free-form metadata).

    The grid graph carries capacities (including any blockage-induced
    reductions baked in by the generator); the netlist carries the nets to
    route.  Routers must not mutate the netlist; they mutate the graph's
    demand state only.
    """

    name: str
    graph: GridGraph
    netlist: Netlist
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def n_nets(self) -> int:
        """Number of nets to route."""
        return len(self.netlist)

    @property
    def n_gcells(self) -> int:
        """Number of 2-D G-cells per layer."""
        return self.graph.nx * self.graph.ny

    @property
    def n_layers(self) -> int:
        """Number of metal layers."""
        return self.graph.n_layers

    def validate(self) -> None:
        """Raise ``ValueError`` if any pin lies off-grid or off-stack."""
        check_pins(self.netlist, self.graph)

    def __repr__(self) -> str:
        return (
            f"Design({self.name!r}, {self.n_nets} nets, "
            f"{self.graph.nx}x{self.graph.ny}x{self.n_layers})"
        )
