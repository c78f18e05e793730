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


__all__ = ["unique_sorted"]
