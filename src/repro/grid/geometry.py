"""2-D integer geometry primitives on the G-cell grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class Point:
    """A G-cell location ``(x, y)`` on the 2-D routing grid."""

    x: int
    y: int

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y

    def translated(self, dx: int, dy: int) -> "Point":
        """Return the point moved by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)


def manhattan(a: Point, b: Point) -> int:
    """Return the Manhattan (L1) distance between two G-cells."""
    return abs(a.x - b.x) + abs(a.y - b.y)


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned rectangle of G-cells, ``lo`` and ``hi`` inclusive.

    Used for net bounding boxes — the conflict test of Algorithm 1 and the
    size measure (HPWL) of the selection technique both work on ``Rect``.
    """

    xlo: int
    ylo: int
    xhi: int
    yhi: int

    def __post_init__(self) -> None:
        if self.xlo > self.xhi or self.ylo > self.yhi:
            raise ValueError(f"degenerate rectangle: {self}")

    @staticmethod
    def bounding(points: Iterable[Point]) -> "Rect":
        """Return the bounding box of a non-empty collection of points."""
        pts = list(points)
        if not pts:
            raise ValueError("bounding box of no points")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> int:
        """Number of G-cell columns spanned (paper's ``M``)."""
        return self.xhi - self.xlo + 1

    @property
    def height(self) -> int:
        """Number of G-cell rows spanned (paper's ``N``)."""
        return self.yhi - self.ylo + 1

    @property
    def hpwl(self) -> int:
        """Half-perimeter wirelength: the net-size measure of Sec. IV-D."""
        return (self.xhi - self.xlo) + (self.yhi - self.ylo)

    @property
    def area(self) -> int:
        """Number of G-cells covered."""
        return self.width * self.height

    def contains(self, p: Point) -> bool:
        """Return True when ``p`` lies inside the rectangle."""
        return self.xlo <= p.x <= self.xhi and self.ylo <= p.y <= self.yhi

    def overlaps(self, other: "Rect") -> bool:
        """Return True when the two closed rectangles share any G-cell.

        This is the conflict predicate between two routing tasks: nets whose
        bounding boxes overlap may compete for the same edges and cannot be
        routed concurrently with frozen costs (Sec. III-C).
        """
        return not (
            self.xhi < other.xlo
            or other.xhi < self.xlo
            or self.yhi < other.ylo
            or other.yhi < self.ylo
        )

    def expanded(self, margin: int) -> "Rect":
        """Return the rectangle grown by ``margin`` cells on every side."""
        return Rect(self.xlo - margin, self.ylo - margin, self.xhi + margin, self.yhi + margin)

    def clipped(self, nx: int, ny: int) -> "Rect":
        """Return the rectangle clipped to the grid ``[0, nx) x [0, ny)``."""
        return Rect(
            max(self.xlo, 0),
            max(self.ylo, 0),
            min(self.xhi, nx - 1),
            min(self.yhi, ny - 1),
        )

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """Return ``(xlo, ylo, xhi, yhi)``."""
        return (self.xlo, self.ylo, self.xhi, self.yhi)


def rects_overlap(
    a: Tuple[int, int, int, int], b: Tuple[int, int, int, int]
) -> bool:
    """Return True when two closed ``(xlo, ylo, xhi, yhi)`` rects share a cell."""
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def rect_union_area(rects: Iterable[Tuple[int, int, int, int]]) -> int:
    """Return the number of integer cells covered by a union of closed
    ``(xlo, ylo, xhi, yhi)`` rectangles (both corners inclusive).

    Rectangles that are empty on either axis (``hi < lo``) are skipped.
    Summing per-rect areas would double-count the cells overlapping
    rectangles share; coordinate compression keeps the cost at O(k^2)
    boolean cells for ``k`` rectangles.
    """
    boxes = [r for r in rects if r[0] <= r[2] and r[1] <= r[3]]
    if not boxes:
        return 0
    if len(boxes) == 1:
        xlo, ylo, xhi, yhi = boxes[0]
        return (xhi - xlo + 1) * (yhi - ylo + 1)
    # Fast path — for pairwise-disjoint rects plain summing is exact
    # and avoids the compression machinery entirely.
    disjoint = True
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            if rects_overlap(a, b):
                disjoint = False
                break
        if not disjoint:
            break
    if disjoint:
        return sum((r[2] - r[0] + 1) * (r[3] - r[1] + 1) for r in boxes)
    if len(boxes) <= 12:
        # Pure-Python compression: for small k the interpreted loops
        # beat the fixed per-call overhead of the NumPy path.
        from bisect import bisect_left

        xs = sorted({v for r in boxes for v in (r[0], r[2] + 1)})
        ys = sorted({v for r in boxes for v in (r[1], r[3] + 1)})
        n_cols = len(ys) - 1
        occupied = bytearray((len(xs) - 1) * n_cols)
        for xlo, ylo, xhi, yhi in boxes:
            i0 = bisect_left(xs, xlo)
            i1 = bisect_left(xs, xhi + 1)
            j0 = bisect_left(ys, ylo)
            j1 = bisect_left(ys, yhi + 1)
            for i in range(i0, i1):
                base = i * n_cols
                for j in range(j0, j1):
                    occupied[base + j] = 1
        total = 0
        for i in range(len(xs) - 1):
            width = xs[i + 1] - xs[i]
            base = i * n_cols
            for j in range(n_cols):
                if occupied[base + j]:
                    total += width * (ys[j + 1] - ys[j])
        return total
    xs = np.unique([v for r in boxes for v in (r[0], r[2] + 1)])
    ys = np.unique([v for r in boxes for v in (r[1], r[3] + 1)])
    occupied = np.zeros((len(xs) - 1, len(ys) - 1), dtype=bool)
    for xlo, ylo, xhi, yhi in boxes:
        i0 = int(np.searchsorted(xs, xlo))
        i1 = int(np.searchsorted(xs, xhi + 1))
        j0 = int(np.searchsorted(ys, ylo))
        j1 = int(np.searchsorted(ys, yhi + 1))
        occupied[i0:i1, j0:j1] = True
    wx = np.diff(xs)
    wy = np.diff(ys)
    return int((occupied * wx[:, None] * wy[None, :]).sum())
