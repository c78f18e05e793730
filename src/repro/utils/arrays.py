"""Small array helpers for the hot paths."""

from __future__ import annotations

import numpy as np


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D array — ``np.unique(values)``.

    One sort and one neighbour compare.  ``np.unique`` goes through a
    hash table for integer input in NumPy 2, which costs 3x on a few
    dozen entries and 20x on tens of thousands.
    """
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def ranges(start: np.ndarray, count: np.ndarray, stride=1):
    """Expand runs: ``(owner, value)`` with ``value = start[i] + k *
    stride[i]`` for every ``k < count[i]``, run after run; ``owner`` is
    the run ``i``.  ``stride`` is a scalar or one per run."""
    owner = np.arange(count.size).repeat(count)
    step = np.arange(owner.size) - (count.cumsum() - count).repeat(count)
    if not np.isscalar(stride):
        stride = stride[owner]
    return owner, start[owner] + step * stride


__all__ = ["ranges", "unique_sorted"]
