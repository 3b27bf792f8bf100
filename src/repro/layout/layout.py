"""The :class:`Layout` container: a netlist plus its placement and routing.

A layout is the *output* of the paper's problem formulation: every device has
a position (and orientation), every microstrip has a chain-point path, and
the whole thing is supposed to respect the spacing / planarity / boundary /
exact-length constraints — which the design-rule checker in
:mod:`repro.layout.drc` verifies independently of the optimiser.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import LayoutError
from repro.circuit.microstrip_net import MicrostripNet
from repro.circuit.netlist import Netlist
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.layout.placement import Placement
from repro.layout.routing import RoutedMicrostrip


class Layout:
    """A (possibly partial) physical realisation of a netlist.

    Parameters
    ----------
    netlist:
        The circuit being laid out.
    placements:
        Initial placements (may be empty and filled in later).
    routes:
        Initial routed microstrips (may be empty and filled in later).
    metadata:
        Free-form information about how the layout was produced (flow name,
        phase snapshots, solver statistics).  Copied on construction.
    """

    def __init__(
        self,
        netlist: Netlist,
        placements: Iterable[Placement] = (),
        routes: Iterable[RoutedMicrostrip] = (),
        metadata: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.netlist = netlist
        self._placements: Dict[str, Placement] = {}
        self._routes: Dict[str, RoutedMicrostrip] = {}
        self.metadata: Dict[str, object] = dict(metadata or {})
        for placement in placements:
            self.set_placement(placement)
        for route in routes:
            self.set_route(route)

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #

    def set_placement(self, placement: Placement) -> None:
        """Add or replace the placement of a device."""
        if not self.netlist.has_device(placement.device_name):
            raise LayoutError(
                f"placement references device {placement.device_name!r} which is not "
                f"in netlist {self.netlist.name!r}"
            )
        self._placements[placement.device_name] = placement

    def set_route(self, route: RoutedMicrostrip) -> None:
        """Add or replace the routing of a microstrip."""
        if route.net_name not in self.netlist.microstrip_names:
            raise LayoutError(
                f"route references microstrip {route.net_name!r} which is not in "
                f"netlist {self.netlist.name!r}"
            )
        self._routes[route.net_name] = route

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def placements(self) -> List[Placement]:
        return [self._placements[name] for name in sorted(self._placements)]

    @property
    def routes(self) -> List[RoutedMicrostrip]:
        return [self._routes[name] for name in sorted(self._routes)]

    def placement(self, device_name: str) -> Placement:
        try:
            return self._placements[device_name]
        except KeyError as exc:
            raise LayoutError(f"device {device_name!r} has not been placed") from exc

    def route(self, net_name: str) -> RoutedMicrostrip:
        try:
            return self._routes[net_name]
        except KeyError as exc:
            raise LayoutError(f"microstrip {net_name!r} has not been routed") from exc

    def has_placement(self, device_name: str) -> bool:
        return device_name in self._placements

    def has_route(self, net_name: str) -> bool:
        return net_name in self._routes

    @property
    def is_complete(self) -> bool:
        """True when every device is placed and every microstrip is routed."""
        return len(self._placements) == self.netlist.num_devices and len(
            self._routes
        ) == self.netlist.num_microstrips

    # ------------------------------------------------------------------ #
    # derived geometry
    # ------------------------------------------------------------------ #

    @property
    def boundary(self) -> Rect:
        """The layout area rectangle."""
        return self.netlist.area.rect

    def device_outline(self, device_name: str, clearance: float = 0.0) -> Rect:
        """Outline (optionally expanded) of a placed device."""
        device = self.netlist.device(device_name)
        placement = self.placement(device_name)
        outline = placement.outline(device)
        return outline.expanded(clearance) if clearance else outline

    def pin_position(self, device_name: str, pin_name: str) -> Point:
        """Absolute position of a pin of a placed device."""
        device = self.netlist.device(device_name)
        placement = self.placement(device_name)
        return placement.pin_position(device, pin_name)

    def terminal_positions(self, net: MicrostripNet | str) -> Tuple[Point, Point]:
        """Absolute start / end pin positions a routed net must connect."""
        if isinstance(net, str):
            net = self.netlist.microstrip(net)
        start = self.pin_position(net.start.device, net.start.pin)
        end = self.pin_position(net.end.device, net.end.pin)
        return start, end

    def device_outlines(self, clearance: float = 0.0) -> Dict[str, Rect]:
        """Outlines of all placed devices keyed by ``dev:<name>``."""
        outlines: Dict[str, Rect] = {}
        for name in sorted(self._placements):
            outlines[f"dev:{name}"] = self.device_outline(name, clearance)
        return outlines

    def segment_outlines(self, clearance: float = 0.0) -> Dict[str, Rect]:
        """Per-segment outlines of all routes keyed by ``net:<name>[i]``."""
        outlines: Dict[str, Rect] = {}
        for net_name in sorted(self._routes):
            route = self._routes[net_name]
            for index, segment in enumerate(route.segments()):
                rect = segment.bounding_box(clearance) if clearance else segment.outline()
                outlines[f"net:{net_name}[{index}]"] = rect
        return outlines

    def all_outlines(self, clearance: float = 0.0) -> Dict[str, Rect]:
        """Device and segment outlines combined (for overlap / DRC checks)."""
        outlines = self.device_outlines(clearance)
        outlines.update(self.segment_outlines(clearance))
        return outlines

    # ------------------------------------------------------------------ #
    # copies
    # ------------------------------------------------------------------ #

    def copy(self) -> "Layout":
        """Shallow copy (placements/routes are immutable, so this is safe)."""
        return Layout(
            self.netlist,
            self._placements.values(),
            self._routes.values(),
            metadata=dict(self.metadata),
        )

    def with_simplified_routes(self) -> "Layout":
        """Copy with every route's redundant chain points removed."""
        simplified = [route.simplified() for route in self._routes.values()]
        return Layout(
            self.netlist,
            self._placements.values(),
            simplified,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Layout({self.netlist.name!r}, {len(self._placements)}/"
            f"{self.netlist.num_devices} devices placed, {len(self._routes)}/"
            f"{self.netlist.num_microstrips} microstrips routed)"
        )
