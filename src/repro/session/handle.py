"""Immutable, content-keyed design data shared across jobs."""

from __future__ import annotations

from hashlib import blake2b
from typing import Dict, Optional, Tuple

import numpy as np

from repro.grid.graph import GridGraph
from repro.grid.layers import LayerStack
from repro.netlist.delta import NetlistDelta
from repro.netlist.design import Design
from repro.netlist.net import Netlist


class DesignHandle:
    """The immutable half of a routing problem.

    Holds the grid dimensions, the capacity planes (blockages baked
    in), and the netlist — everything a job *reads*; none of what it
    *mutates* (demand lives on each session's own graph).  The
    ``key`` is a content hash, so two handles built from bit-identical
    designs share cache entries and warm sessions.

    The capacity arrays are read-only views; the netlist must not be
    mutated (sessions apply :class:`NetlistDelta` functionally).
    """

    def __init__(
        self,
        name: str,
        stack: LayerStack,
        wire_capacity: Tuple[np.ndarray, ...],
        via_capacity: np.ndarray,
        netlist: Netlist,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.stack = stack
        self.nx = via_capacity.shape[1]
        self.ny = via_capacity.shape[2]
        self.wire_capacity = tuple(np.array(a, copy=True) for a in wire_capacity)
        self.via_capacity = np.array(via_capacity, copy=True)
        for arr in self.wire_capacity:
            arr.setflags(write=False)
        self.via_capacity.setflags(write=False)
        self.netlist = netlist
        self.metadata = dict(metadata or {})
        self.key = self._content_key()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_design(cls, design: Design) -> "DesignHandle":
        """Snapshot ``design``'s immutable half (capacities + netlist)."""
        graph = design.graph
        return cls(
            design.name,
            graph.stack,
            tuple(graph.wire_capacity),
            graph.via_capacity,
            design.netlist,
            metadata=design.metadata,
        )

    # ------------------------------------------------------------------ #
    # Derived state
    # ------------------------------------------------------------------ #
    @property
    def n_layers(self) -> int:
        return self.stack.n_layers

    def _content_key(self) -> str:
        h = blake2b(digest_size=16)
        h.update(
            repr(
                (self.name, self.nx, self.ny, self.stack.n_layers,
                 self.stack.direction(0).value)
            ).encode()
        )
        for arr in self.wire_capacity:
            h.update(arr.tobytes())
        h.update(self.via_capacity.tobytes())
        for net in self.netlist:
            h.update(repr((net.name, net.pins)).encode())
        return h.hexdigest()

    def fresh_graph(self) -> GridGraph:
        """Build a zero-demand :class:`GridGraph` with these capacities."""
        graph = GridGraph(self.nx, self.ny, self.stack)
        for layer in range(self.n_layers):
            np.copyto(graph.wire_capacity[layer], self.wire_capacity[layer])
        np.copyto(graph.via_capacity, self.via_capacity)
        return graph

    def design(self, delta: Optional[NetlistDelta] = None) -> Design:
        """Materialise a routable :class:`Design` on a fresh graph.

        With a ``delta`` the returned design carries the edited
        netlist — the cold-route baseline every warm ECO re-route is
        asserted bit-identical against.
        """
        netlist = self.netlist if delta is None else delta.apply(self.netlist)
        return Design(self.name, self.fresh_graph(), netlist, dict(self.metadata))

    def __repr__(self) -> str:
        return (
            f"DesignHandle({self.name!r}, {self.nx}x{self.ny}x"
            f"{self.n_layers}, {len(self.netlist)} nets, key={self.key[:8]})"
        )


__all__ = ["DesignHandle"]
