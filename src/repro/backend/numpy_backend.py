"""NumPy implementation of the :class:`ArrayBackend` protocol.

This is the default substrate: host and device coincide, ``asarray``
and ``to_numpy`` are (near-)identities, and every op maps to one or two
vectorised NumPy calls.  It defines the reference semantics the other
backends must match bit-for-bit.
"""

from __future__ import annotations

import math
from typing import Any, Sequence, Tuple

import numpy as np

from repro.backend.base import ArrayBackend

_DTYPES = {"float": float, "int": np.intp, "bool": bool}


class NumpyBackend(ArrayBackend):
    """Dense vectorised execution on the host CPU via NumPy."""

    name = "numpy"
    device_is_host = True

    # ------------------------------------------------------------------ #
    # Construction / transfer
    # ------------------------------------------------------------------ #
    def asarray(self, data: Any, dtype: str = "float") -> np.ndarray:
        return np.asarray(data, dtype=_DTYPES[dtype])

    def to_numpy(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a)

    def full(self, shape: Sequence[int], value: float) -> np.ndarray:
        return np.full(tuple(shape), value, dtype=float)

    def zeros(self, shape: Sequence[int], dtype: str = "float") -> np.ndarray:
        return np.zeros(tuple(shape), dtype=_DTYPES[dtype])

    def arange(self, n: int) -> np.ndarray:
        return np.arange(n, dtype=np.intp)

    # ------------------------------------------------------------------ #
    # Elementwise
    # ------------------------------------------------------------------ #
    def add(self, a, b):
        return np.add(a, b)

    def subtract(self, a, b):
        return np.subtract(a, b)

    def multiply(self, a, b):
        return np.multiply(a, b)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def maximum(self, a, b):
        return np.maximum(a, b)

    def abs(self, a):
        return np.abs(a)

    def where(self, cond, a, b):
        return np.where(cond, a, b)

    def less(self, a, b):
        return np.less(a, b)

    def less_equal(self, a, b):
        return np.less_equal(a, b)

    def greater_equal(self, a, b):
        return np.greater_equal(a, b)

    def equal(self, a, b):
        return np.equal(a, b)

    def logical_and(self, a, b):
        return np.logical_and(a, b)

    def logical_or(self, a, b):
        return np.logical_or(a, b)

    def isfinite(self, a):
        return np.isfinite(a)

    def astype(self, a, dtype: str):
        return np.asarray(a).astype(_DTYPES[dtype])

    def floor_divide(self, a, k: int):
        return np.asarray(a) // k

    def mod(self, a, k: int):
        return np.asarray(a) % k

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    def expand_dims(self, a, axis: int):
        # Plain indexing: np.expand_dims costs ~2 us of argument
        # normalisation per call and the kernels make ~10 of them.
        if axis < 0:
            return np.asarray(a)[(Ellipsis, None) + (slice(None),) * (-axis - 1)]
        return np.asarray(a)[(slice(None),) * axis + (None,)]

    def reshape(self, a, shape: Sequence[int]):
        return np.reshape(a, tuple(shape))

    def unstack(self, a):
        return list(np.asarray(a))

    def flip(self, a, axis: int):
        return np.flip(a, axis)

    def shape(self, a) -> Tuple[int, ...]:
        return a.shape if isinstance(a, np.ndarray) else np.shape(a)

    def nbytes(self, a) -> int:
        return a.nbytes if isinstance(a, np.ndarray) else int(np.asarray(a).nbytes)

    def copyto(self, dst, src) -> None:
        src = np.asarray(src)
        if np.shape(dst) != src.shape:
            raise ValueError(f"copyto shape mismatch {np.shape(dst)} vs {src.shape}")
        np.copyto(dst, src)

    # ------------------------------------------------------------------ #
    # Reductions / scans
    # ------------------------------------------------------------------ #
    def min_argmin(self, a, axis: int):
        # One pass finds the argmins; the minima are then gathered by
        # index (a second reduction costs more on the large hybrid
        # tensors).  The gather is take_along_axis without its per-call
        # index construction, which dominated on one-net batches.
        a = np.asarray(a)
        arg = a.argmin(axis=axis)
        axis %= a.ndim
        outer, inner = math.prod(a.shape[:axis]), math.prod(a.shape[axis + 1 :])
        values = a.reshape(outer, a.shape[axis], inner)[
            np.arange(outer)[:, None], arg.reshape(outer, inner), np.arange(inner)
        ]
        return values.reshape(arg.shape), arg

    def cumsum(self, a, axis: int):
        return np.cumsum(a, axis=axis)

    def cummin(self, a, axis: int):
        # ufunc.accumulate walks element by element, which is slowest
        # exactly on the non-contiguous axes the wavefront sweeps scan.
        # There, a Hillis-Steele doubling scan (log2(n) shifted
        # minimums over contiguous slabs) is several times faster and
        # — min being exactly associative and commutative — returns
        # the bit-identical result.  The innermost axis stays on
        # accumulate, where its contiguous inner loop wins.
        a = np.asarray(a)
        n = a.shape[axis] if a.ndim else 0
        if a.ndim < 2 or axis in (a.ndim - 1, -1) or n <= 1:
            return np.minimum.accumulate(a, axis=axis)
        out = a.copy(order="C")
        src = [slice(None)] * a.ndim
        dst = [slice(None)] * a.ndim
        shift = 1
        while shift < n:
            src[axis] = slice(0, n - shift)
            dst[axis] = slice(shift, n)
            np.minimum(
                out[tuple(dst)], out[tuple(src)], out=out[tuple(dst)]
            )
            shift *= 2
        return out

    # ------------------------------------------------------------------ #
    # Gather / scatter
    # ------------------------------------------------------------------ #
    def scatter_add(self, target, index, source) -> None:
        np.add.at(target, np.asarray(index, dtype=np.intp), source)

    def select_rows(self, a, idx):
        a = np.asarray(a)
        picked = np.take_along_axis(a, np.asarray(idx)[:, None, :], axis=1)
        return picked[:, 0, :]

    def gather_pairs(self, a, i, j):
        a = np.asarray(a)
        batch = np.arange(a.shape[0])[:, None]
        return a[batch, np.asarray(i), np.asarray(j)]

    def gather_points(self, a, x, y):
        a = np.asarray(a)
        return a[:, np.asarray(x, dtype=np.intp), np.asarray(y, dtype=np.intp)].T


__all__ = ["NumpyBackend"]
