"""Axis-aligned rectangles and bounding boxes.

Rectangles model device outlines, microstrip segment outlines and the
expanded bounding boxes of Section 2.1 of the paper (outlines grown by the
ground-plane distance ``t`` on every side to encode the ``2t`` spacing rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.errors import GeometryError
from repro.geometry.point import GEOM_TOL, Point


@dataclass(frozen=True)
class Rect:
    """An immutable axis-aligned rectangle.

    Attributes
    ----------
    xl, yl:
        Lower-left corner (micrometres).
    xr, yu:
        Upper-right corner (micrometres).
    """

    xl: float
    yl: float
    xr: float
    yu: float

    def __post_init__(self) -> None:
        for value in (self.xl, self.yl, self.xr, self.yu):
            if not math.isfinite(value):
                raise GeometryError("rectangle coordinates must be finite")
        if self.xr < self.xl - GEOM_TOL or self.yu < self.yl - GEOM_TOL:
            raise GeometryError(
                f"degenerate rectangle: ({self.xl}, {self.yl}) .. ({self.xr}, {self.yu})"
            )

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_center(center: Point, width: float, height: float) -> "Rect":
        """Build a rectangle from its centre point and dimensions."""
        if width < 0 or height < 0:
            raise GeometryError(f"negative dimensions: {width} x {height}")
        half_w, half_h = width / 2.0, height / 2.0
        return Rect(center.x - half_w, center.y - half_h, center.x + half_w, center.y + half_h)

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> "Rect":
        """Return the bounding box of a non-empty collection of rectangles."""
        rects = list(rects)
        if not rects:
            raise GeometryError("bounding box of an empty collection is undefined")
        return Rect(
            min(r.xl for r in rects),
            min(r.yl for r in rects),
            max(r.xr for r in rects),
            max(r.yu for r in rects),
        )

    # -- basic properties ----------------------------------------------------

    @property
    def width(self) -> float:
        return self.xr - self.xl

    @property
    def height(self) -> float:
        return self.yu - self.yl

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point(0.5 * (self.xl + self.xr), 0.5 * (self.yl + self.yu))

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(xl, yl, xr, yu)``."""
        return (self.xl, self.yl, self.xr, self.yu)

    # -- transformations -----------------------------------------------------

    def expanded(self, margin: float) -> "Rect":
        """Grow the rectangle by ``margin`` on every side.

        This implements the paper's bounding-box expansion (Figure 2(a)): a
        microstrip/device outline grown by the ground-plane distance ``t`` on
        each side turns the ``2t`` spacing rule into a plain non-overlap test.
        Negative margins shrink the rectangle but may not invert it.
        """
        rect = Rect.__new__(Rect)
        object.__setattr__(rect, "xl", self.xl - margin)
        object.__setattr__(rect, "yl", self.yl - margin)
        object.__setattr__(rect, "xr", self.xr + margin)
        object.__setattr__(rect, "yu", self.yu + margin)
        if rect.xr < rect.xl or rect.yu < rect.yl:
            raise GeometryError(
                f"shrinking by {margin} inverts rectangle {self.as_tuple()}"
            )
        return rect

    def translated(self, dx: float, dy: float) -> "Rect":
        """Return the rectangle shifted by ``(dx, dy)``."""
        return Rect(self.xl + dx, self.yl + dy, self.xr + dx, self.yu + dy)

    # -- predicates ------------------------------------------------------------

    def contains_point(self, point: Point, tolerance: float = GEOM_TOL) -> bool:
        """True when the point lies inside or on the boundary."""
        return (
            self.xl - tolerance <= point.x <= self.xr + tolerance
            and self.yl - tolerance <= point.y <= self.yu + tolerance
        )

    def contains_rect(self, other: "Rect", tolerance: float = GEOM_TOL) -> bool:
        """True when ``other`` lies fully inside this rectangle."""
        return (
            other.xl >= self.xl - tolerance
            and other.yl >= self.yl - tolerance
            and other.xr <= self.xr + tolerance
            and other.yu <= self.yu + tolerance
        )

    def overlaps(self, other: "Rect", tolerance: float = GEOM_TOL) -> bool:
        """True when the two rectangles overlap with positive area.

        Touching edges (shared boundary, zero-area intersection) do not count
        as an overlap; the paper's constraint (16)-(20) likewise allows
        bounding boxes to abut.
        """
        return (
            self.xl < other.xr - tolerance
            and other.xl < self.xr - tolerance
            and self.yl < other.yu - tolerance
            and other.yl < self.yu - tolerance
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """Return the overlapping rectangle, or ``None`` when disjoint."""
        xl = max(self.xl, other.xl)
        yl = max(self.yl, other.yl)
        xr = min(self.xr, other.xr)
        yu = min(self.yu, other.yu)
        if xr < xl or yu < yl:
            return None
        return Rect(xl, yl, xr, yu)

    def __contains__(self, point: Point) -> bool:
        return self.contains_point(point)
