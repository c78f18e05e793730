"""Pure-Python scalar implementation of :class:`ArrayBackend`.

This backend is the *sequential scalar reference* the paper measures
its GPU kernels against (Table VIII's "sequential algorithm on CPU"):
every array op is executed one element at a time with plain Python
floats.  It exists for two reasons:

* **oracle** — the kernels run the same code on this backend and on
  NumPy, and both are IEEE-754 double sequences with identical
  association and identical first-minimum tie-breaking, so the results
  must match *bit for bit*.  The equivalence suite asserts exactly
  that, which is far stronger evidence than a separate hand-written
  scalar DP (the pre-backend design) could give.
* **baseline** — ``benchmarks/bench_kernel_speedup.py`` measures the
  NumPy-vs-Python backend ratio as a true same-code-two-substrates
  speedup, the shape of the paper's GPU-vs-scalar-CPU comparison.

The device array is :class:`NDArray`: a flat row-major Python list plus
a shape tuple.  NumPy is used only inside ``asarray``/``to_numpy``
(host-side transfer glue), never for arithmetic.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.backend.base import ArrayBackend

_CASTS = {"float": float, "int": int, "bool": bool}
_NP_DTYPES = {"float": float, "int": np.intp, "bool": bool}


def _strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Row-major element strides for ``shape``."""
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return tuple(strides)


class NDArray:
    """Minimal dense N-d array: flat list + shape, row-major."""

    __slots__ = ("data", "shape", "dtype")

    def __init__(self, data: List[Any], shape: Tuple[int, ...], dtype: str) -> None:
        self.data = data
        self.shape = shape
        self.dtype = dtype

    @property
    def size(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # debugging aid only
        return f"NDArray(shape={self.shape}, dtype={self.dtype})"


def _broadcast_shape(sa: Tuple[int, ...], sb: Tuple[int, ...]) -> Tuple[int, ...]:
    """NumPy broadcasting of two shapes (right-aligned)."""
    ndim = max(len(sa), len(sb))
    sa = (1,) * (ndim - len(sa)) + sa
    sb = (1,) * (ndim - len(sb)) + sb
    out = []
    for da, db in zip(sa, sb):
        if da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            raise ValueError(f"cannot broadcast {sa} with {sb}")
    return tuple(out)


def _flat_indices(shape: Tuple[int, ...], out_shape: Tuple[int, ...]) -> List[int]:
    """Flat element indices of ``shape`` visited in ``out_shape`` order.

    ``shape`` must be broadcastable to ``out_shape``.  Dimensions of
    size 1 get stride 0, so the same element repeats — this is the
    whole of broadcasting, expressed as an index list.
    """
    ndim = len(out_shape)
    padded = (1,) * (ndim - len(shape)) + shape
    strides = _strides(padded)
    eff = [0 if padded[d] == 1 else strides[d] for d in range(ndim)]
    idx = [0]
    for d in range(ndim):
        stride, n = eff[d], out_shape[d]
        if n == 1:
            continue  # idx unchanged (stride contributes 0 offsets)
        if stride == 0:
            idx = [base for base in idx for _ in range(n)]
        else:
            idx = [base + k * stride for base in idx for k in range(n)]
    return idx


def _promote(da: str, db: str) -> str:
    for dtype in ("float", "int", "bool"):
        if da == dtype or db == dtype:
            return dtype
    raise ValueError(f"unknown dtypes {da!r}, {db!r}")


class PythonBackend(ArrayBackend):
    """One-element-at-a-time execution with plain Python scalars."""

    name = "python"

    # ------------------------------------------------------------------ #
    # Construction / transfer
    # ------------------------------------------------------------------ #
    def asarray(self, data: Any, dtype: str = "float") -> NDArray:
        if isinstance(data, NDArray):
            if data.dtype == dtype:
                return data
            cast = _CASTS[dtype]
            return NDArray([cast(v) for v in data.data], data.shape, dtype)
        host = np.asarray(data, dtype=_NP_DTYPES[dtype])
        return NDArray(host.ravel().tolist(), host.shape, dtype)

    def to_numpy(self, a: NDArray) -> np.ndarray:
        return np.array(a.data, dtype=_NP_DTYPES[a.dtype]).reshape(a.shape)

    def full(self, shape: Sequence[int], value: float) -> NDArray:
        shape = tuple(int(s) for s in shape)
        return NDArray([float(value)] * _size(shape), shape, "float")

    def zeros(self, shape: Sequence[int], dtype: str = "float") -> NDArray:
        shape = tuple(int(s) for s in shape)
        zero = _CASTS[dtype](0)
        return NDArray([zero] * _size(shape), shape, dtype)

    def arange(self, n: int) -> NDArray:
        return NDArray(list(range(n)), (n,), "int")

    # ------------------------------------------------------------------ #
    # Broadcasting machinery
    # ------------------------------------------------------------------ #
    def _coerce(self, a: Any) -> NDArray:
        if isinstance(a, NDArray):
            return a
        if isinstance(a, bool):
            return NDArray([a], (), "bool")
        if isinstance(a, int):
            return NDArray([a], (), "int")
        if isinstance(a, float):
            return NDArray([a], (), "float")
        return self.asarray(a)

    def _binary(self, a: Any, b: Any, op, dtype: str = None) -> NDArray:
        a, b = self._coerce(a), self._coerce(b)
        out_dtype = dtype or _promote(a.dtype, b.dtype)
        if a.shape == b.shape:
            data = [op(x, y) for x, y in zip(a.data, b.data)]
            return NDArray(data, a.shape, out_dtype)
        if a.shape == ():
            x = a.data[0]
            return NDArray([op(x, y) for y in b.data], b.shape, out_dtype)
        if b.shape == ():
            y = b.data[0]
            return NDArray([op(x, y) for x in a.data], a.shape, out_dtype)
        out_shape = _broadcast_shape(a.shape, b.shape)
        ia = _flat_indices(a.shape, out_shape)
        ib = _flat_indices(b.shape, out_shape)
        ad, bd = a.data, b.data
        data = [op(ad[i], bd[j]) for i, j in zip(ia, ib)]
        return NDArray(data, out_shape, out_dtype)

    # ------------------------------------------------------------------ #
    # Elementwise
    # ------------------------------------------------------------------ #
    def add(self, a, b):
        return self._binary(a, b, lambda x, y: x + y)

    def subtract(self, a, b):
        return self._binary(a, b, lambda x, y: x - y)

    def multiply(self, a, b):
        return self._binary(a, b, lambda x, y: x * y)

    def minimum(self, a, b):
        return self._binary(a, b, lambda x, y: x if x < y else y)

    def maximum(self, a, b):
        return self._binary(a, b, lambda x, y: x if x > y else y)

    def abs(self, a):
        a = self._coerce(a)
        return NDArray([x if x >= 0 else -x for x in a.data], a.shape, a.dtype)

    def where(self, cond, a, b):
        cond, a, b = self._coerce(cond), self._coerce(a), self._coerce(b)
        out_dtype = _promote(a.dtype, b.dtype)
        out_shape = _broadcast_shape(_broadcast_shape(cond.shape, a.shape), b.shape)
        ic = _flat_indices(cond.shape, out_shape)
        ia = _flat_indices(a.shape, out_shape)
        ib = _flat_indices(b.shape, out_shape)
        cd, ad, bd = cond.data, a.data, b.data
        data = [ad[i] if cd[c] else bd[j] for c, i, j in zip(ic, ia, ib)]
        return NDArray(data, out_shape, out_dtype)

    def less(self, a, b):
        return self._binary(a, b, lambda x, y: x < y, dtype="bool")

    def less_equal(self, a, b):
        return self._binary(a, b, lambda x, y: x <= y, dtype="bool")

    def greater_equal(self, a, b):
        return self._binary(a, b, lambda x, y: x >= y, dtype="bool")

    def equal(self, a, b):
        return self._binary(a, b, lambda x, y: x == y, dtype="bool")

    def logical_and(self, a, b):
        return self._binary(a, b, lambda x, y: bool(x and y), dtype="bool")

    def logical_or(self, a, b):
        return self._binary(a, b, lambda x, y: bool(x or y), dtype="bool")

    def isfinite(self, a):
        a = self._coerce(a)
        return NDArray([math.isfinite(x) for x in a.data], a.shape, "bool")

    def astype(self, a, dtype: str):
        return self.asarray(a, dtype=dtype)

    def floor_divide(self, a, k: int):
        a = self._coerce(a)
        return NDArray([x // k for x in a.data], a.shape, a.dtype)

    def mod(self, a, k: int):
        a = self._coerce(a)
        return NDArray([x % k for x in a.data], a.shape, a.dtype)

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    def expand_dims(self, a, axis: int):
        a = self._coerce(a)
        ndim = len(a.shape) + 1
        if axis < 0:
            axis += ndim
        shape = a.shape[:axis] + (1,) + a.shape[axis:]
        return NDArray(a.data, shape, a.dtype)

    def reshape(self, a, shape: Sequence[int]):
        a = self._coerce(a)
        shape = tuple(int(s) for s in shape)
        if shape.count(-1) == 1:
            known = _size(tuple(s for s in shape if s != -1))
            shape = tuple(len(a.data) // max(known, 1) if s == -1 else s for s in shape)
        if _size(shape) != len(a.data):
            raise ValueError(f"cannot reshape {a.shape} into {shape}")
        return NDArray(a.data, shape, a.dtype)

    def unstack(self, a):
        a = self._coerce(a)
        step = _size(a.shape[1:])
        return [
            NDArray(a.data[i * step : (i + 1) * step], a.shape[1:], a.dtype)
            for i in range(a.shape[0])
        ]

    def flip(self, a, axis: int):
        a = self._coerce(a)
        outer, n, inner = self._axis_blocks(a, axis)
        data = a.data
        out: List[Any] = []
        for o in range(outer):
            base = o * n * inner
            for k in range(n - 1, -1, -1):
                pos = base + k * inner
                out.extend(data[pos : pos + inner])
        return NDArray(out, a.shape, a.dtype)

    def shape(self, a) -> Tuple[int, ...]:
        return self._coerce(a).shape

    def nbytes(self, a) -> int:
        a = self._coerce(a)
        # mirror NumPy payload sizes (float64/intp = 8 bytes, bool = 1)
        return len(a.data) * (1 if a.dtype == "bool" else 8)

    def copyto(self, dst, src) -> None:
        if not isinstance(dst, NDArray):
            raise TypeError("copyto destination must be a device NDArray")
        src = self.asarray(src, dtype=dst.dtype)
        if src.shape != dst.shape:
            raise ValueError(f"copyto shape mismatch {dst.shape} vs {src.shape}")
        dst.data[:] = src.data

    # ------------------------------------------------------------------ #
    # Reductions / scans
    # ------------------------------------------------------------------ #
    def _axis_blocks(self, a: NDArray, axis: int) -> Tuple[int, int, int]:
        """Decompose ``a`` as (outer, n, inner) around ``axis``."""
        if axis < 0:
            axis += len(a.shape)
        outer = _size(a.shape[:axis])
        n = a.shape[axis]
        inner = _size(a.shape[axis + 1 :])
        return outer, n, inner

    def min_argmin(self, a, axis: int):
        a = self._coerce(a)
        if axis < 0:
            axis += len(a.shape)
        outer, n, inner = self._axis_blocks(a, axis)
        out_shape = a.shape[:axis] + a.shape[axis + 1 :]
        values: List[float] = []
        args: List[int] = []
        data = a.data
        for o in range(outer):
            base = o * n * inner
            for i in range(inner):
                best = data[base + i]
                best_k = 0
                pos = base + i + inner
                for k in range(1, n):
                    v = data[pos]
                    if v < best:
                        best = v
                        best_k = k
                    pos += inner
                values.append(best)
                args.append(best_k)
        return (
            NDArray(values, out_shape, a.dtype),
            NDArray(args, out_shape, "int"),
        )

    def _scan(self, a, axis: int, op):
        a = self._coerce(a)
        outer, n, inner = self._axis_blocks(a, axis)
        data = list(a.data)
        for o in range(outer):
            base = o * n * inner
            for k in range(1, n):
                pos = base + k * inner
                prev = pos - inner
                for i in range(inner):
                    data[pos + i] = op(data[prev + i], data[pos + i])
        return NDArray(data, a.shape, a.dtype)

    def cumsum(self, a, axis: int):
        return self._scan(a, axis, lambda acc, v: acc + v)

    def cummin(self, a, axis: int):
        return self._scan(a, axis, lambda acc, v: acc if acc < v else v)

    # ------------------------------------------------------------------ #
    # Gather / scatter
    # ------------------------------------------------------------------ #
    def scatter_add(self, target, index, source) -> None:
        index = self._coerce(index)
        source = self._coerce(source)
        block = _size(target.shape[1:])
        tdata, sdata = target.data, source.data
        for c, row in enumerate(index.data):
            tbase = row * block
            sbase = c * block
            for off in range(block):
                tdata[tbase + off] += sdata[sbase + off]

    def select_rows(self, a, idx):
        a, idx = self._coerce(a), self._coerce(idx)
        b, c, n = a.shape
        data = a.data
        out = [
            data[(bb * c + idx.data[bb * n + nn]) * n + nn]
            for bb in range(b)
            for nn in range(n)
        ]
        return NDArray(out, (b, n), a.dtype)

    def gather_pairs(self, a, i, j):
        a, i, j = self._coerce(a), self._coerce(i), self._coerce(j)
        b, c, k = a.shape
        n = i.shape[1]
        data, idata, jdata = a.data, i.data, j.data
        out = [
            data[(bb * c + idata[bb * n + nn]) * k + jdata[bb * n + nn]]
            for bb in range(b)
            for nn in range(n)
        ]
        return NDArray(out, (b, n), a.dtype)

    def gather_points(self, a, x, y):
        a = self._coerce(a)
        x = self.asarray(x, dtype="int")
        y = self.asarray(y, dtype="int")
        n_layers, nx, ny = a.shape
        data = a.data
        out = [
            data[(l * nx + xv) * ny + yv]
            for xv, yv in zip(x.data, y.data)
            for l in range(n_layers)
        ]
        return NDArray(out, (len(x.data), n_layers), a.dtype)


def _size(shape: Tuple[int, ...]) -> int:
    total = 1
    for s in shape:
        total *= s
    return total


__all__ = ["NDArray", "PythonBackend"]
