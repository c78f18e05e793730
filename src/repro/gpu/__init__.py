"""Simulated CPU–GPU platform.

The paper runs its pattern-routing kernels on an RTX 3090.  No GPU is
available here, so this package provides the *platform model* the
reproduction substitutes (DESIGN.md Sec. 2):

* kernels are expressed exactly as the paper's computation-graph flows
  (dense vector/matrix min-plus operations) against the pluggable
  :mod:`repro.backend` layer — the same data-parallel formulation,
  lock-step over all candidates, on whichever substrate is selected;
* :class:`~repro.gpu.instrument.InstrumentedBackend` decorates any
  backend to count element work per kernel scope, and
  :class:`~repro.gpu.device.Device` records every kernel launch
  (grid/block geometry, element counts) and integrates an analytic
  timing model so "GPU time" and the equivalent sequential time are
  both available for the speedup tables; its
  :class:`~repro.gpu.device.DeviceSpec` also carries the bandwidths
  that price host-device transfers under the zero-copy technique the
  paper uses (Sec. IV-E).
"""

from repro.gpu.device import Device, DeviceSpec
from repro.gpu.instrument import InstrumentedBackend
from repro.gpu.simt import KernelLaunch

__all__ = [
    "Device",
    "DeviceSpec",
    "InstrumentedBackend",
    "KernelLaunch",
]
