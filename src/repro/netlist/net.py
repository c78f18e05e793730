"""Nets, pins and netlists.

A multi-pin net is a set of pins (G-cell locations with a layer) that
must be electrically connected (Sec. II-B).  Nets know their 2-D
bounding box — the quantity that drives conflict detection
(Algorithm 1), the sorting schemes (Table IV) and the selection
thresholds (Sec. IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.geometry import Point, Rect


@dataclass(frozen=True, order=True)
class Pin:
    """A net terminal at G-cell ``(x, y)`` on metal layer ``layer``."""

    x: int
    y: int
    layer: int

    @property
    def point(self) -> Point:
        """Return the 2-D G-cell location."""
        return Point(self.x, self.y)

    def as_node(self) -> Tuple[int, int, int]:
        """Return the 3-D grid node ``(x, y, layer)``."""
        return (self.x, self.y, self.layer)


class Net:
    """A multi-pin net."""

    def __init__(self, name: str, pins: Sequence[Pin]) -> None:
        if len(pins) < 1:
            raise ValueError(f"net {name!r} has no pins")
        self.name = name
        self.pins: Tuple[Pin, ...] = tuple(pins)
        self._bbox = Rect.bounding(p.point for p in self.pins)

    @property
    def n_pins(self) -> int:
        """Number of pins."""
        return len(self.pins)

    @property
    def bbox(self) -> Rect:
        """2-D bounding box over all pins."""
        return self._bbox

    @property
    def hpwl(self) -> int:
        """Half-perimeter wirelength of the bounding box (Sec. IV-D)."""
        return self._bbox.hpwl

    def unique_points(self) -> List[Point]:
        """Return the distinct 2-D pin locations, in deterministic order."""
        seen: Dict[Point, None] = {}
        for pin in self.pins:
            seen.setdefault(pin.point, None)
        return list(seen)

    def pins_at(self, point: Point) -> List[Pin]:
        """Return all pins located at 2-D point ``point``."""
        return [p for p in self.pins if p.point == point]

    def __repr__(self) -> str:
        return f"Net({self.name!r}, {self.n_pins} pins, hpwl={self.hpwl})"


PinTable = Tuple[np.ndarray, np.ndarray]


def pin_table(nets: Sequence[Net]) -> PinTable:
    """The pins of ``nets`` as arrays: ``(3, P)`` ints — rows ``x``,
    ``y``, ``layer`` — net after net in pin order, and each net's pin
    count."""
    counts = np.fromiter((len(net.pins) for net in nets), dtype=np.intp, count=len(nets))
    flat = np.fromiter(
        chain.from_iterable((p.x, p.y, p.layer) for net in nets for p in net.pins),
        dtype=np.intp,
        count=3 * int(counts.sum()),
    )
    return flat.reshape(-1, 3).T, counts


class Netlist:
    """An ordered collection of nets with name lookup."""

    def __init__(self, nets: Sequence[Net] = ()) -> None:
        self._nets: List[Net] = []
        self._by_name: Dict[str, Net] = {}
        self._pins: Optional[PinTable] = None
        for net in nets:
            self.add(net)

    def add(self, net: Net) -> None:
        """Append a net; names must be unique."""
        if net.name in self._by_name:
            raise ValueError(f"duplicate net name {net.name!r}")
        self._nets.append(net)
        self._by_name[net.name] = net
        self._pins = None

    def pin_table(self) -> PinTable:
        """:func:`pin_table` of the whole netlist, built once."""
        if self._pins is None:
            self._pins = pin_table(self._nets)
        return self._pins

    def __len__(self) -> int:
        return len(self._nets)

    def __iter__(self) -> Iterator[Net]:
        return iter(self._nets)

    def __getitem__(self, index: int) -> Net:
        return self._nets[index]

    def by_name(self, name: str) -> Net:
        """Return the net called ``name``."""
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def total_pins(self) -> int:
        """Return the total pin count over all nets."""
        return sum(net.n_pins for net in self._nets)

    def __repr__(self) -> str:
        return f"Netlist({len(self)} nets, {self.total_pins()} pins)"
