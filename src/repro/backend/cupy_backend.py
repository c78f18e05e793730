"""CuPy implementation of :class:`ArrayBackend` (optional, GPU).

Registered only when ``cupy`` is importable — the reproduction
container has no GPU, so on most machines this module is never
imported.  The implementation mirrors :class:`NumpyBackend` op for op
(CuPy is NumPy-API compatible); ``asarray``/``to_numpy`` become real
host-to-device / device-to-host transfers.

Caveat: CuPy reductions may differ from NumPy by tie-breaking on some
dtypes and by ULPs for transcendental functions.  The kernels use
neither (only add/compare/min over float64), so the bit-identity
contract of :mod:`repro.backend.base` is expected to hold, but it is
machine-verified only where a GPU is present — the parity tests
parametrize over *registered* backends, so they pick cupy up
automatically on CUDA machines.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

import cupy as cp  # noqa: F401 — import guarded by the registry

from repro.backend.base import ArrayBackend

_DTYPES = {"float": cp.float64, "int": cp.intp, "bool": cp.bool_}


class CupyBackend(ArrayBackend):
    """Dense vectorised execution on a CUDA device via CuPy."""

    name = "cupy"

    def asarray(self, data: Any, dtype: str = "float"):
        return cp.asarray(data, dtype=_DTYPES[dtype])

    def to_numpy(self, a):
        return cp.asnumpy(a)

    def full(self, shape: Sequence[int], value: float):
        return cp.full(tuple(shape), value, dtype=cp.float64)

    def zeros(self, shape: Sequence[int], dtype: str = "float"):
        return cp.zeros(tuple(shape), dtype=_DTYPES[dtype])

    def arange(self, n: int):
        return cp.arange(n, dtype=cp.intp)

    def add(self, a, b):
        return cp.add(a, b)

    def subtract(self, a, b):
        return cp.subtract(a, b)

    def multiply(self, a, b):
        return cp.multiply(a, b)

    def minimum(self, a, b):
        return cp.minimum(a, b)

    def maximum(self, a, b):
        return cp.maximum(a, b)

    def abs(self, a):
        return cp.abs(a)

    def where(self, cond, a, b):
        return cp.where(cond, a, b)

    def less(self, a, b):
        return cp.less(a, b)

    def less_equal(self, a, b):
        return cp.less_equal(a, b)

    def greater_equal(self, a, b):
        return cp.greater_equal(a, b)

    def equal(self, a, b):
        return cp.equal(a, b)

    def logical_and(self, a, b):
        return cp.logical_and(a, b)

    def logical_or(self, a, b):
        return cp.logical_or(a, b)

    def isfinite(self, a):
        return cp.isfinite(a)

    def astype(self, a, dtype: str):
        return cp.asarray(a).astype(_DTYPES[dtype])

    def floor_divide(self, a, k: int):
        return cp.asarray(a) // k

    def mod(self, a, k: int):
        return cp.asarray(a) % k

    def expand_dims(self, a, axis: int):
        return cp.expand_dims(a, axis)

    def reshape(self, a, shape: Sequence[int]):
        return cp.reshape(a, tuple(shape))

    def unstack(self, a):
        return [a[i] for i in range(a.shape[0])]

    def flip(self, a, axis: int):
        return cp.flip(a, axis)

    def shape(self, a) -> Tuple[int, ...]:
        return tuple(a.shape)

    def nbytes(self, a) -> int:
        return int(cp.asarray(a).nbytes)

    def copyto(self, dst, src) -> None:
        src = cp.asarray(src)
        if tuple(dst.shape) != tuple(src.shape):
            raise ValueError(
                f"copyto shape mismatch {tuple(dst.shape)} vs {tuple(src.shape)}"
            )
        cp.copyto(dst, src)

    def min_argmin(self, a, axis: int):
        a = cp.asarray(a)
        arg = a.argmin(axis=axis)
        values = cp.take_along_axis(a, cp.expand_dims(arg, axis), axis=axis)
        return cp.squeeze(values, axis=axis), arg

    def cumsum(self, a, axis: int):
        return cp.cumsum(a, axis=axis)

    def cummin(self, a, axis: int):
        return cp.minimum.accumulate(a, axis=axis)

    def scatter_add(self, target, index, source) -> None:
        cp.add.at(target, cp.asarray(index, dtype=cp.intp), source)

    def select_rows(self, a, idx):
        a = cp.asarray(a)
        picked = cp.take_along_axis(a, cp.asarray(idx)[:, None, :], axis=1)
        return picked[:, 0, :]

    def gather_pairs(self, a, i, j):
        a = cp.asarray(a)
        batch = cp.arange(a.shape[0])[:, None]
        return a[batch, cp.asarray(i), cp.asarray(j)]

    def gather_points(self, a, x, y):
        a = cp.asarray(a)
        return a[:, cp.asarray(x, dtype=cp.intp), cp.asarray(y, dtype=cp.intp)].T


__all__ = ["CupyBackend"]
