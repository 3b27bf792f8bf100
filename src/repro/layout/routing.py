"""Routed microstrips: the chain-point realisation of each net."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.errors import LayoutError
from repro.circuit.microstrip_net import MicrostripNet
from repro.geometry.path import ManhattanPath
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment


@dataclass(frozen=True)
class RoutedMicrostrip:
    """The routing of one microstrip net.

    Attributes
    ----------
    net_name:
        Name of the :class:`~repro.circuit.microstrip_net.MicrostripNet`.
    path:
        The chain-point path from the start terminal to the end terminal.
        ``path.width`` is the physical microstrip width.
    """

    net_name: str
    path: ManhattanPath

    def __post_init__(self) -> None:
        if not self.net_name:
            raise LayoutError("routed microstrip must name its net")

    # -- geometry ----------------------------------------------------------- #

    @property
    def chain_points(self) -> Sequence[Point]:
        return self.path.points

    @property
    def width(self) -> float:
        return self.path.width

    def segments(self) -> List[Segment]:
        """Non-degenerate segments of the routing."""
        return self.path.segments(drop_degenerate=True)

    def outline_rects(self, clearance: float = 0.0) -> List[Rect]:
        """Per-segment outline rectangles, optionally expanded by clearance."""
        return self.path.outline_rects(clearance)

    # -- metrics ------------------------------------------------------------- #

    @property
    def geometric_length(self) -> float:
        return self.path.geometric_length

    @property
    def bend_count(self) -> int:
        return self.path.bend_count

    def equivalent_length(self, delta: float) -> float:
        """Electrical length including the per-bend compensation δ."""
        return self.path.equivalent_length(delta)

    def length_error(self, net: MicrostripNet, delta: float) -> float:
        """Signed difference between equivalent and required length."""
        if net.name != self.net_name:
            raise LayoutError(
                f"routing of {self.net_name!r} compared against net {net.name!r}"
            )
        return self.equivalent_length(delta) - net.target_length

    # -- editing --------------------------------------------------------------- #

    def simplified(self) -> "RoutedMicrostrip":
        """Drop chain points that do not bend the path (Phase 3 deletion)."""
        return RoutedMicrostrip(self.net_name, self.path.simplified())

    # -- serialisation ------------------------------------------------------- #

    def as_dict(self) -> Dict[str, object]:
        return {
            "net": self.net_name,
            "width": self.path.width,
            "points": [[p.x, p.y] for p in self.path.points],
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "RoutedMicrostrip":
        try:
            points = [Point(float(x), float(y)) for x, y in data["points"]]
            return RoutedMicrostrip(
                net_name=str(data["net"]),
                path=ManhattanPath(points, float(data.get("width", 0.0))),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise LayoutError(f"malformed routed microstrip record: {exc}") from exc
