"""Backend decorator that meters element work into a :class:`Device`.

The op-counting/timing model used to live inside the pattern engines as
hand-derived ``elements = ...`` formulas next to every launch.  It is
now a *decorator over the array backend*: :class:`InstrumentedBackend`
wraps any :class:`ArrayBackend`, forwards every op to the inner backend
unchanged, and tallies how many scalar operations a lock-step SIMT
machine would execute for it.  A ``kernel(...)`` scope brackets a batch
of ops and flushes the tally as one :meth:`Device.launch`::

    backend = device.wrap(get_backend("numpy"))
    with backend.kernel("lshape", n_blocks=len(tasks), threads_per_block=L * L):
        values, bends, args = minplus_two_bend(w1, mat, xp=backend)

Counting rules (per op, in scalar element steps):

* elementwise / comparison / ``where`` / ``astype`` / ``floor_divide``
  / ``mod`` and the gathers count their **output** size — one lane per
  output element;
* reductions and scans (``min_argmin``, ``cumsum``, ``cummin``) and
  ``scatter_add`` count their **input/source** size — every input
  element is touched once;
* construction and shape ops (``full``, ``zeros``, ``arange``,
  ``expand_dims``, ``reshape``, ``unstack``, ``flip``, ``shape``,
  ``nbytes``) count
  zero element steps — they are layout, not compute;
* the seam-crossing ops are metered in **bytes** instead of elements:
  ``asarray``/``copyto`` add their payload to the host-to-device
  tally, ``to_numpy`` to the device-to-host tally.  On a
  ``device_is_host`` backend no wall-clock copy happens, but the tally
  still measures the would-be traffic — that proxy is exactly what the
  device-residency tests assert on ("this scope moved zero plane
  bytes").  A ``kernel(...)`` scope attributes the byte deltas it
  bracketed to its :class:`KernelLaunch` record.

Work performed outside any ``kernel`` scope (for example the cost
model's prefix-sum rebuild) accumulates in ``unattributed_elements``
and the ``bytes_*_total`` tallies and is never turned into a launch
record.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Sequence, Tuple

from repro.backend.base import ArrayBackend

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device


class _KernelScope:
    """One ``kernel(...)`` scope: the tallies at entry, flushed as one
    :meth:`Device.launch` at exit (a plain class — a launch is a hot
    path, and a generator context manager costs several calls more)."""

    __slots__ = ("backend", "name", "n_blocks", "threads", "start", "h2d", "d2h")

    def __init__(self, backend: "InstrumentedBackend", name: str, n_blocks: int, threads: int) -> None:
        self.backend, self.name = backend, name
        self.n_blocks, self.threads = n_blocks, threads

    def __enter__(self) -> None:
        backend = self.backend
        self.start = backend._counter
        self.h2d = backend._bytes_to_device
        self.d2h = backend._bytes_to_host

    def __exit__(self, *exc) -> None:
        backend = self.backend
        elements = backend._counter - self.start
        h2d = backend._bytes_to_device - self.h2d
        d2h = backend._bytes_to_host - self.d2h
        backend._flushed += elements
        backend.device.launch(
            self.name,
            self.n_blocks,
            self.threads,
            elements,
            bytes_to_device=h2d,
            bytes_to_host=d2h,
        )


class InstrumentedBackend(ArrayBackend):
    """Forwarding wrapper around a backend that meters element work."""

    def __init__(self, inner: ArrayBackend, device: "Device") -> None:
        self.inner = inner
        self.device = device
        self.name = f"{inner.name}+instrumented"
        self.device_is_host = inner.device_is_host
        #: Protocol calls forwarded so far, layout and transfer ops
        #: included — each is one host-side call, which is what a small
        #: batch pays for (the element tally is what a large one does).
        self.ops = 0
        self._counter = 0
        self._flushed = 0
        self._bytes_to_device = 0
        self._bytes_to_host = 0

    # ------------------------------------------------------------------ #
    # Metering
    # ------------------------------------------------------------------ #
    def _count(self, array: Any) -> Any:
        # ``size`` straight off the result: every backend's device array
        # has it, and this runs once per elementwise op.
        self.ops += 1
        self._counter += array.size
        return array

    @property
    def unattributed_elements(self) -> int:
        """Element work performed outside any ``kernel`` scope so far."""
        return self._counter - self._flushed

    @property
    def bytes_to_device_total(self) -> int:
        """All host-to-device bytes metered so far (attributed or not)."""
        return self._bytes_to_device

    @property
    def bytes_to_host_total(self) -> int:
        """All device-to-host bytes metered so far (attributed or not)."""
        return self._bytes_to_host

    def kernel(self, name: str, n_blocks: int, threads_per_block: int) -> "_KernelScope":
        """Bracket a batch of ops and flush their tally as one launch."""
        return _KernelScope(self, name, n_blocks, threads_per_block)

    # ------------------------------------------------------------------ #
    # Construction / transfer — zero element cost, bytes metered
    # ------------------------------------------------------------------ #
    def asarray(self, data: Any, dtype: str = "float"):
        self.ops += 1
        result = self.inner.asarray(data, dtype)
        self._bytes_to_device += self.inner.nbytes(result)
        return result

    def to_numpy(self, a):
        self.ops += 1
        self._bytes_to_host += self.inner.nbytes(a)
        return self.inner.to_numpy(a)

    def full(self, shape: Sequence[int], value: float):
        self.ops += 1
        return self.inner.full(shape, value)

    def zeros(self, shape: Sequence[int], dtype: str = "float"):
        self.ops += 1
        return self.inner.zeros(shape, dtype)

    def arange(self, n: int):
        self.ops += 1
        return self.inner.arange(n)

    def expand_dims(self, a, axis: int):
        self.ops += 1
        return self.inner.expand_dims(a, axis)

    def reshape(self, a, shape: Sequence[int]):
        self.ops += 1
        return self.inner.reshape(a, shape)

    def unstack(self, a):
        self.ops += 1
        return self.inner.unstack(a)

    def flip(self, a, axis: int):
        self.ops += 1
        return self.inner.flip(a, axis)

    def shape(self, a) -> Tuple[int, ...]:
        self.ops += 1
        return self.inner.shape(a)

    def nbytes(self, a) -> int:
        self.ops += 1
        return self.inner.nbytes(a)

    def copyto(self, dst, src) -> None:
        self.ops += 1
        self.inner.copyto(dst, src)
        self._bytes_to_device += self.inner.nbytes(dst)

    # ------------------------------------------------------------------ #
    # Elementwise — count output size
    # ------------------------------------------------------------------ #
    def add(self, a, b):
        return self._count(self.inner.add(a, b))

    def subtract(self, a, b):
        return self._count(self.inner.subtract(a, b))

    def multiply(self, a, b):
        return self._count(self.inner.multiply(a, b))

    def minimum(self, a, b):
        return self._count(self.inner.minimum(a, b))

    def maximum(self, a, b):
        return self._count(self.inner.maximum(a, b))

    def abs(self, a):
        return self._count(self.inner.abs(a))

    def where(self, cond, a, b):
        return self._count(self.inner.where(cond, a, b))

    def less(self, a, b):
        return self._count(self.inner.less(a, b))

    def less_equal(self, a, b):
        return self._count(self.inner.less_equal(a, b))

    def greater_equal(self, a, b):
        return self._count(self.inner.greater_equal(a, b))

    def equal(self, a, b):
        return self._count(self.inner.equal(a, b))

    def logical_and(self, a, b):
        return self._count(self.inner.logical_and(a, b))

    def logical_or(self, a, b):
        return self._count(self.inner.logical_or(a, b))

    def isfinite(self, a):
        return self._count(self.inner.isfinite(a))

    def astype(self, a, dtype: str):
        return self._count(self.inner.astype(a, dtype))

    def floor_divide(self, a, k: int):
        return self._count(self.inner.floor_divide(a, k))

    def mod(self, a, k: int):
        return self._count(self.inner.mod(a, k))

    # ------------------------------------------------------------------ #
    # Reductions / scans — count input size
    # ------------------------------------------------------------------ #
    def min_argmin(self, a, axis: int):
        self.ops += 1
        self._counter += math.prod(self.inner.shape(a))
        return self.inner.min_argmin(a, axis)

    def cumsum(self, a, axis: int):
        self.ops += 1
        self._counter += math.prod(self.inner.shape(a))
        return self.inner.cumsum(a, axis)

    def cummin(self, a, axis: int):
        self.ops += 1
        self._counter += math.prod(self.inner.shape(a))
        return self.inner.cummin(a, axis)

    # ------------------------------------------------------------------ #
    # Gather / scatter
    # ------------------------------------------------------------------ #
    def scatter_add(self, target, index, source) -> None:
        self.ops += 1
        self._counter += math.prod(self.inner.shape(source))
        self.inner.scatter_add(target, index, source)

    def select_rows(self, a, idx):
        return self._count(self.inner.select_rows(a, idx))

    def gather_pairs(self, a, i, j):
        return self._count(self.inner.gather_pairs(a, i, j))

    def gather_points(self, a, x, y):
        return self._count(self.inner.gather_points(a, x, y))


__all__ = ["InstrumentedBackend"]
