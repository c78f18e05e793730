"""GPU-friendly pattern routing — the paper's primary contribution.

The 3-D L-shape (Sec. III-D), Z-shape (Sec. III-E) and hybrid-shape
(Sec. III-F) pattern-routing dynamic programs are reformulated into
dense vector/matrix min-plus *computation graph flows* and evaluated in
batch over all nets of a scheduler batch at once (Fig. 7).
"""

from repro.pattern.kernels import (
    combine_children,
    interval_min,
    minplus_two_bend,
    minplus_vec_mat,
    zshape_reduce,
)
from repro.pattern.twopin import BatchState, PatternMode
from repro.pattern.plan import plan_level
from repro.pattern.batch import BatchPatternRouter
from repro.pattern.cpu_reference import SequentialPatternRouter
from repro.pattern.hybrid import hybrid_candidates, route_hybrid_wave

__all__ = [
    "interval_min",
    "combine_children",
    "minplus_vec_mat",
    "minplus_two_bend",
    "zshape_reduce",
    "PatternMode",
    "BatchState",
    "plan_level",
    "BatchPatternRouter",
    "SequentialPatternRouter",
    "hybrid_candidates",
    "route_hybrid_wave",
]
