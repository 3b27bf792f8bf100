"""2-D points for layout geometry.

All coordinates are in micrometres (see :mod:`repro.units`).  Points are
immutable value objects; arithmetic returns new points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import GeometryError

#: Geometric comparison tolerance in micrometres.  Layout coordinates come
#: out of an LP solver in double precision; 1e-6 um (one picometre) is far
#: below any physically meaningful dimension but above solver round-off.
GEOM_TOL = 1.0e-6


@dataclass(frozen=True)
class Point:
    """An immutable point in the layout plane.

    Attributes
    ----------
    x, y:
        Coordinates in micrometres.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    # -- arithmetic --------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Point":
        """Return the point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "Point":
        """Return the point scaled about the origin."""
        return Point(self.x * factor, self.y * factor)

    # -- metrics -----------------------------------------------------------

    def manhattan_distance(self, other: "Point") -> float:
        """L1 distance to another point."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def euclidean_distance(self, other: "Point") -> float:
        """L2 distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def is_close(self, other: "Point", tolerance: float = GEOM_TOL) -> bool:
        """True if both coordinates match within ``tolerance``."""
        return abs(self.x - other.x) <= tolerance and abs(self.y - other.y) <= tolerance

    # -- transforms --------------------------------------------------------

    def rotated(self, quarter_turns: int, about: "Point" | None = None) -> "Point":
        """Rotate by 90° * ``quarter_turns`` counter-clockwise about ``about``.

        Layout rotations are restricted to multiples of 90°, matching the
        device rotations used in Phase 3 of the paper.
        """
        about = about or Point(0.0, 0.0)
        turns = quarter_turns % 4
        dx, dy = self.x - about.x, self.y - about.y
        if turns == 0:
            rx, ry = dx, dy
        elif turns == 1:
            rx, ry = -dy, dx
        elif turns == 2:
            rx, ry = -dx, -dy
        else:
            rx, ry = dy, -dx
        return Point(about.x + rx, about.y + ry)

    # -- conversion ---------------------------------------------------------

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def midpoint(a: Point, b: Point) -> Point:
    """Return the midpoint of two points."""
    return Point(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))


def collinear_axis(a: Point, b: Point, tolerance: float = GEOM_TOL) -> str | None:
    """Classify the axis of the straight segment between two points.

    Returns ``"h"`` for horizontal, ``"v"`` for vertical, ``None`` when the
    points are neither axis-aligned nor coincident.
    Coincident points report ``"h"`` (a degenerate horizontal run), which is
    the convention used by the routing code for zero-length segments.
    """
    dx = abs(a.x - b.x)
    dy = abs(a.y - b.y)
    if dy <= tolerance:
        return "h"
    if dx <= tolerance:
        return "v"
    return None
