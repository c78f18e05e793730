"""GPU-friendly 3-D hybrid-shape pattern routing (Sec. III-F, Fig. 11).

The hybrid shape unifies Z and L: on top of the pure-Z enumeration it
lets the target bend ``Bt`` coincide with the bounding-box corners (the
VHV extreme rows the pure Z pattern drops), so every L path is also a
hybrid candidate — ``M + N`` flows in total.  The flows themselves are
the Z computation graph (Eq. 11–14); only the enumeration differs, so
the wave driver is :func:`~repro.pattern.zshape.route_candidate_wave`
with :func:`hybrid_candidates` plugged in.
"""

from __future__ import annotations

import numpy as np

from repro.grid.cost import CostQuery
from repro.pattern.lshape import WaveResult
from repro.pattern.zshape import enumerate_candidates, route_candidate_wave


def hybrid_candidates(ends: np.ndarray):
    """Enumerate hybrid candidates: ``M + N`` flows per net (Fig. 11).

    The full HVH family over all ``M`` bounding-box columns plus the
    full VHV family over all ``N`` rows, the extreme ones degenerating
    into the two L shapes.
    """
    return enumerate_candidates(ends, corner_rows=True)


def route_hybrid_wave(
    ends: np.ndarray, combine: np.ndarray, query: CostQuery
) -> WaveResult:
    """Price a wave of hybrid-shape two-pin nets.

    Takes and returns what
    :func:`repro.pattern.lshape.route_lshape_wave` does.
    """
    return route_candidate_wave(ends, combine, query, hybrid_candidates)


__all__ = ["hybrid_candidates", "route_hybrid_wave"]
