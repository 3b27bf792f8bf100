"""Rectilinear (axis-aligned) microstrip segments.

A microstrip line is a chain of such segments joined at chain points
(Section 2.2 / Figure 2(b) of the paper).  Each segment is a straight
horizontal or vertical run with a physical width; its outline is therefore a
rectangle, which is what the spacing and planarity rules operate on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GeometryError
from repro.geometry.point import GEOM_TOL, Point, collinear_axis
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class Segment:
    """An axis-aligned segment with a physical width.

    Attributes
    ----------
    start, end:
        Centre-line end points.  They must share an x or a y coordinate.
    width:
        Physical microstrip width in micrometres (non-negative).
    """

    start: Point
    end: Point
    width: float = 0.0

    def __post_init__(self) -> None:
        if self.width < 0:
            raise GeometryError(f"segment width must be non-negative, got {self.width}")
        if collinear_axis(self.start, self.end) is None:
            raise GeometryError(
                f"segment must be axis-aligned: {self.start.as_tuple()} .. {self.end.as_tuple()}"
            )

    # -- orientation -----------------------------------------------------------

    @property
    def is_horizontal(self) -> bool:
        """True for horizontal (or degenerate zero-length) segments."""
        return abs(self.start.y - self.end.y) <= GEOM_TOL

    @property
    def is_vertical(self) -> bool:
        """True for vertical segments (degenerate segments report horizontal)."""
        return not self.is_horizontal and abs(self.start.x - self.end.x) <= GEOM_TOL

    @property
    def is_degenerate(self) -> bool:
        """True when start and end coincide."""
        return self.start.is_close(self.end)

    @property
    def direction(self) -> str:
        """One of ``"r"``, ``"l"``, ``"u"``, ``"d"`` or ``"."`` (degenerate).

        Matches the four direction variables of equation (1) in the paper.
        """
        if self.is_degenerate:
            return "."
        if self.is_horizontal:
            return "r" if self.end.x > self.start.x else "l"
        return "u" if self.end.y > self.start.y else "d"

    # -- metrics -----------------------------------------------------------------

    @property
    def length(self) -> float:
        """Centre-line length (equation (6) evaluated geometrically)."""
        return self.start.manhattan_distance(self.end)

    def outline(self) -> Rect:
        """Rectangle covering the segment metal, including its width."""
        half = self.width / 2.0
        return Rect(
            min(self.start.x, self.end.x) - half,
            min(self.start.y, self.end.y) - half,
            max(self.start.x, self.end.x) + half,
            max(self.start.y, self.end.y) + half,
        )

    def bounding_box(self, clearance: float) -> Rect:
        """Outline expanded by ``clearance`` on every side (Figure 2(a))."""
        return self.outline().expanded(clearance)

    # -- geometric queries -----------------------------------------------------

    def reversed(self) -> "Segment":
        """Return the segment traversed in the opposite direction."""
        return Segment(self.end, self.start, self.width)

    def crosses(self, other: "Segment", tolerance: float = GEOM_TOL) -> bool:
        """True when the two centre-lines properly intersect.

        Planarity of microstrip routing forbids any crossing between
        different microstrip lines.  Shared end points (as occur between two
        consecutive segments of the same line) are *not* counted as a
        crossing; interior intersections and partial collinear overlaps are.
        """
        if self.is_degenerate or other.is_degenerate:
            return False

        shared_endpoint = (
            self.start.is_close(other.start, tolerance)
            or self.start.is_close(other.end, tolerance)
            or self.end.is_close(other.start, tolerance)
            or self.end.is_close(other.end, tolerance)
        )

        if self.is_horizontal and other.is_horizontal:
            if abs(self.start.y - other.start.y) > tolerance:
                return False
            overlap = min(
                max(self.start.x, self.end.x), max(other.start.x, other.end.x)
            ) - max(min(self.start.x, self.end.x), min(other.start.x, other.end.x))
            return overlap > tolerance
        if self.is_vertical and other.is_vertical:
            if abs(self.start.x - other.start.x) > tolerance:
                return False
            overlap = min(
                max(self.start.y, self.end.y), max(other.start.y, other.end.y)
            ) - max(min(self.start.y, self.end.y), min(other.start.y, other.end.y))
            return overlap > tolerance

        horizontal, vertical = (self, other) if self.is_horizontal else (other, self)
        cross_x = vertical.start.x
        cross_y = horizontal.start.y
        x_lo = min(horizontal.start.x, horizontal.end.x)
        x_hi = max(horizontal.start.x, horizontal.end.x)
        y_lo = min(vertical.start.y, vertical.end.y)
        y_hi = max(vertical.start.y, vertical.end.y)
        inside_x = x_lo - tolerance <= cross_x <= x_hi + tolerance
        inside_y = y_lo - tolerance <= cross_y <= y_hi + tolerance
        if not (inside_x and inside_y):
            return False
        if shared_endpoint:
            # Intersection exactly at the shared chain point is a legal joint.
            joint = Point(cross_x, cross_y)
            endpoints = [self.start, self.end, other.start, other.end]
            return not any(joint.is_close(p, tolerance) for p in endpoints)
        return True
