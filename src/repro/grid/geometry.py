"""2-D integer geometry primitives on the G-cell grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple


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
