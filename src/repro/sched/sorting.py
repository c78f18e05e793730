"""Internet ordering: the six sorting schemes of Table IV.

No single scheme wins everywhere (Sec. II-E); the paper's study
(Table V) compares six and adopts ascending bounding-box half-perimeter
for both routing stages.  Scheme keys:

========  =====================================================
``pins_asc``   number of pins, ascending
``pins_desc``  number of pins, descending
``hpwl_asc``   bounding-box half perimeter, ascending  (default)
``hpwl_desc``  bounding-box half perimeter, descending
``area_asc``   bounding-box area, ascending
``area_desc``  bounding-box area, descending
========  =====================================================

All schemes are stable with the net name as the final tie-breaker, so
an ordering is deterministic for a given design.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.netlist.net import Net

_KeyFn = Callable[[Net], Tuple]

SORTING_SCHEMES: Dict[str, _KeyFn] = {
    "pins_asc": lambda net: (net.n_pins, net.name),
    "pins_desc": lambda net: (-net.n_pins, net.name),
    "hpwl_asc": lambda net: (net.hpwl, net.name),
    "hpwl_desc": lambda net: (-net.hpwl, net.name),
    "area_asc": lambda net: (net.bbox.area, net.name),
    "area_desc": lambda net: (-net.bbox.area, net.name),
}

DEFAULT_SCHEME = "hpwl_asc"


def sort_order(nets: Sequence[Net], scheme: str = DEFAULT_SCHEME) -> List[int]:
    """Return the positions of ``nets`` in the named scheme's order."""
    if scheme not in SORTING_SCHEMES:
        raise KeyError(
            f"unknown sorting scheme {scheme!r}; choose from {sorted(SORTING_SCHEMES)}"
        )
    key = SORTING_SCHEMES[scheme]
    return sorted(range(len(nets)), key=lambda i: key(nets[i]))


def sort_nets(nets: Sequence[Net], scheme: str = DEFAULT_SCHEME) -> List[Net]:
    """Return ``nets`` ordered by the named scheme."""
    return [nets[i] for i in sort_order(nets, scheme)]


__all__ = ["SORTING_SCHEMES", "DEFAULT_SCHEME", "sort_nets", "sort_order"]
