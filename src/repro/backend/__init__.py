"""Pluggable array backends for the min-plus pattern kernels.

The kernels (:mod:`repro.pattern.kernels`), the wave drivers
(:mod:`repro.pattern.lshape` / ``zshape`` / ``hybrid``) and the
prefix-sum cost gathers (:mod:`repro.grid.cost`) are written once
against the :class:`ArrayBackend` protocol and run unchanged on every
registered backend:

* ``numpy`` — dense vectorised host execution (the default, and the
  stand-in for the paper's GPU);
* ``python`` — pure-scalar reference, one element at a time (the
  sequential-CPU baseline and cross-backend bit-identity oracle).

Select a backend with ``RouterConfig(backend=...)`` or the CLI's
``--backend`` flag; register new ones with :func:`register_backend`.
"""

from repro.backend.base import Array, ArrayBackend
from repro.backend.registry import (
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "Array",
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]
