"""The :class:`ArrayBackend` protocol — the kernels' array substrate.

The paper's central claim is that the layer-assignment DP *vectorizes*
into dense min-plus flows that run on whatever data-parallel substrate
is available.  This module pins down the contract that makes the claim
testable: the ~15 array operations the pattern kernels and the
prefix-sum cost gathers actually use.  Everything above this layer
(``pattern/kernels.py``, ``pattern/lshape.py``, ``pattern/zshape.py``,
``pattern/hybrid.py``, ``grid/cost.py``) is written once against this
protocol and runs unchanged on every registered backend.

Conventions
-----------
* A backend owns an opaque *device array* type.  ``asarray`` moves host
  data (NumPy arrays, nested lists, scalars) onto the backend;
  ``to_numpy`` moves a device array back.  For the NumPy backend both
  are identity — "host" and "device" coincide.
* All elementwise operations broadcast exactly like NumPy and accept
  Python scalars for either operand.
* ``min_argmin`` is the backbone of every min-plus reduction: it
  returns *first-minimum* argmins (NumPy ``argmin`` tie-breaking), the
  property the cross-backend bit-identity tests rely on.
* All floating point is IEEE-754 double precision.  Two backends fed
  identical inputs must produce bit-identical outputs, because every
  op is a fixed-association sequence of double adds/compares.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence, Tuple

Array = Any  # backend-opaque device array


class ArrayBackend(abc.ABC):
    """Abstract array substrate for the min-plus pattern kernels."""

    #: registry name ("numpy", "python", ...)
    name: str = "abstract"

    #: True when this backend's device arrays *are* host NumPy arrays
    #: (``asarray``/``to_numpy`` are identities).  Callers that keep
    #: host-side twins of device tables (e.g. ``CostQuery``) use this to
    #: skip redundant device-to-host round-trips.
    device_is_host: bool = False

    # ------------------------------------------------------------------ #
    # Construction and host <-> device transfer
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def asarray(self, data: Any, dtype: str = "float") -> Array:
        """Move host data onto the backend (``dtype``: float/int/bool)."""

    @abc.abstractmethod
    def to_numpy(self, a: Array) -> Any:
        """Move a device array back to a host NumPy array."""

    @abc.abstractmethod
    def full(self, shape: Sequence[int], value: float) -> Array:
        """Return a float array of ``shape`` filled with ``value``."""

    @abc.abstractmethod
    def zeros(self, shape: Sequence[int], dtype: str = "float") -> Array:
        """Return a zero array of ``shape``."""

    @abc.abstractmethod
    def arange(self, n: int) -> Array:
        """Return the int array ``[0, 1, ..., n-1]``."""

    # ------------------------------------------------------------------ #
    # Elementwise (NumPy broadcasting; scalars allowed)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def add(self, a: Array, b: Array) -> Array:
        """Broadcasted ``a + b``."""

    @abc.abstractmethod
    def subtract(self, a: Array, b: Array) -> Array:
        """Broadcasted ``a - b``."""

    @abc.abstractmethod
    def multiply(self, a: Array, b: Array) -> Array:
        """Broadcasted ``a * b``."""

    @abc.abstractmethod
    def minimum(self, a: Array, b: Array) -> Array:
        """Broadcasted elementwise minimum."""

    @abc.abstractmethod
    def maximum(self, a: Array, b: Array) -> Array:
        """Broadcasted elementwise maximum."""

    @abc.abstractmethod
    def abs(self, a: Array) -> Array:
        """Elementwise absolute value."""

    @abc.abstractmethod
    def where(self, cond: Array, a: Array, b: Array) -> Array:
        """Broadcasted select: ``a`` where ``cond`` else ``b``."""

    @abc.abstractmethod
    def less(self, a: Array, b: Array) -> Array:
        """Broadcasted ``a < b`` (bool array)."""

    @abc.abstractmethod
    def less_equal(self, a: Array, b: Array) -> Array:
        """Broadcasted ``a <= b`` (bool array)."""

    @abc.abstractmethod
    def greater_equal(self, a: Array, b: Array) -> Array:
        """Broadcasted ``a >= b`` (bool array)."""

    @abc.abstractmethod
    def equal(self, a: Array, b: Array) -> Array:
        """Broadcasted ``a == b`` (bool array).

        IEEE semantics: ``inf == inf`` is True, any comparison with NaN
        is False — the stacked wavefront convergence test relies on
        both.
        """

    @abc.abstractmethod
    def logical_and(self, a: Array, b: Array) -> Array:
        """Broadcasted boolean conjunction."""

    @abc.abstractmethod
    def logical_or(self, a: Array, b: Array) -> Array:
        """Broadcasted boolean disjunction."""

    @abc.abstractmethod
    def isfinite(self, a: Array) -> Array:
        """Elementwise finiteness test (bool array)."""

    @abc.abstractmethod
    def astype(self, a: Array, dtype: str) -> Array:
        """Cast to ``dtype`` in {"float", "int", "bool"}."""

    @abc.abstractmethod
    def floor_divide(self, a: Array, k: int) -> Array:
        """Elementwise integer division by scalar ``k``."""

    @abc.abstractmethod
    def mod(self, a: Array, k: int) -> Array:
        """Elementwise remainder modulo scalar ``k``."""

    # ------------------------------------------------------------------ #
    # Shape manipulation (zero-FLOP views)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def expand_dims(self, a: Array, axis: int) -> Array:
        """Insert a length-1 axis at ``axis`` (negative axes allowed)."""

    @abc.abstractmethod
    def reshape(self, a: Array, shape: Sequence[int]) -> Array:
        """Reshape to ``shape`` (row-major; no data movement)."""

    @abc.abstractmethod
    def unstack(self, a: Array) -> Sequence[Array]:
        """Return ``[a[0], a[1], ...]`` — the sub-arrays along axis 0.

        Layout-only.  One stacked gather (``reshape`` to ``(K, ...)``,
        then ``unstack``) hands a kernel the ``K`` operands that ``K``
        separate gathers of the same table would have produced.
        """

    @abc.abstractmethod
    def flip(self, a: Array, axis: int) -> Array:
        """Reverse the order of elements along ``axis``.

        Layout-only (a view where the substrate supports one); together
        with :meth:`cummin` it yields the reverse segment sweeps of the
        wavefront maze engine.
        """

    @abc.abstractmethod
    def shape(self, a: Array) -> Tuple[int, ...]:
        """Return the shape tuple of a device array."""

    @abc.abstractmethod
    def nbytes(self, a: Array) -> int:
        """Return the payload size of a device array in bytes.

        The transfer-accounting proxy: ``asarray``/``to_numpy``/
        ``copyto`` move this many bytes across the host/device seam
        (zero *wall-clock* bytes on ``device_is_host`` backends, where
        the count still measures would-be traffic).
        """

    @abc.abstractmethod
    def copyto(self, dst: Array, src: Any) -> None:
        """Copy ``src`` (host data or device array) into ``dst`` in place.

        Shapes must match exactly — this is the buffer-reuse seam for
        preallocated device scratch (no reallocation per upload).
        """

    # ------------------------------------------------------------------ #
    # Reductions and scans
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def min_argmin(self, a: Array, axis: int) -> Tuple[Array, Array]:
        """Return ``(min, argmin)`` along ``axis``, first-minimum ties."""

    @abc.abstractmethod
    def cumsum(self, a: Array, axis: int) -> Array:
        """Cumulative sum along ``axis`` (sequential association)."""

    @abc.abstractmethod
    def cummin(self, a: Array, axis: int) -> Array:
        """Cumulative minimum along ``axis``."""

    # ------------------------------------------------------------------ #
    # Gather / scatter — the "fancy indexing" of the prefix-sum queries
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def scatter_add(self, target: Array, index: Array, source: Array) -> None:
        """In place: ``target[index[i]] += source[i]`` along axis 0.

        Repeated indices accumulate (NumPy ``np.add.at`` semantics);
        updates apply in increasing ``i`` order.
        """

    @abc.abstractmethod
    def select_rows(self, a: Array, idx: Array) -> Array:
        """``out[b, n] = a[b, idx[b, n], n]`` for ``a: (B, C, N)``."""

    @abc.abstractmethod
    def gather_pairs(self, a: Array, i: Array, j: Array) -> Array:
        """``out[b, n] = a[b, i[b, n], j[b, n]]`` for ``a: (B, C, K)``."""

    @abc.abstractmethod
    def gather_points(self, a: Array, x: Array, y: Array) -> Array:
        """``out[n, l] = a[l, x[n], y[n]]`` for ``a: (L, X, Y)``.

        The batched G-cell lookup behind every segment/via gather:
        ``x``/``y`` are int coordinate vectors of length ``n``.
        """


__all__ = ["Array", "ArrayBackend"]
