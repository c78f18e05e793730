"""A complete global-routing problem instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.grid.graph import GridGraph
from repro.netlist.net import Net, Netlist


def check_pins(nets: Iterable[Net], graph: GridGraph) -> None:
    """Raise ``ValueError`` if a pin of ``nets`` lies off ``graph``'s
    grid or outside its layer stack."""
    for net in nets:
        for pin in net.pins:
            if not graph.in_bounds(pin.x, pin.y):
                raise ValueError(
                    f"net {net.name!r} pin ({pin.x},{pin.y}) off the "
                    f"{graph.nx}x{graph.ny} grid"
                )
            if not 0 <= pin.layer < graph.n_layers:
                raise ValueError(
                    f"net {net.name!r} pin layer {pin.layer} outside the "
                    f"{graph.n_layers}-layer stack"
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
