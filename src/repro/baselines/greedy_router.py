"""Greedy length-matching router (baseline routing).

The routing half of the *manual-like* baseline: given fixed device
placements, every microstrip is routed independently with an L-shaped
connection, and whatever length is missing relative to the required value is
absorbed in serpentine / U-shaped detours — the standard length-matching
practice on PCBs and in hand-drawn RFIC layouts.  Each detour costs bends,
which is exactly the behaviour the paper's concurrent formulation avoids;
the bend statistics of this router therefore play the role of the "Manual"
column of Table 1.

The router iterates the detour depth so that the *equivalent* length
(geometric + bends x δ) matches the target, because that is the quantity the
design actually cares about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import RoutingError
from repro.circuit.microstrip_net import MicrostripNet
from repro.geometry.path import ManhattanPath, serpentine_path
from repro.geometry.point import GEOM_TOL, Point
from repro.layout.layout import Layout
from repro.layout.routing import RoutedMicrostrip


@dataclass
class GreedyRouterConfig:
    """Tuning knobs of the baseline router."""

    #: Maximum number of detour lobes per net (each lobe costs 4 bends).  A
    #: careful manual designer folds the missing length into one deep detour
    #: rather than many shallow ones, so the default is a single lobe.
    max_lobes: int = 1
    #: Number of equivalent-length correction iterations per net.
    length_iterations: int = 4
    #: Acceptable equivalent-length error in micrometres.
    length_tolerance: float = 2.0


class GreedyRouter:
    """Route every net independently with serpentine length matching."""

    def __init__(self, config: Optional[GreedyRouterConfig] = None) -> None:
        self.config = config or GreedyRouterConfig()

    # ------------------------------------------------------------------ #

    def route(self, layout: Layout) -> Tuple[Dict[str, RoutedMicrostrip], float]:
        """Route all nets of a placed layout; returns routes and runtime."""
        start_time = time.perf_counter()
        netlist = layout.netlist
        routes: Dict[str, RoutedMicrostrip] = {}
        # Long nets first: they need the most room for their detours.
        ordered = sorted(
            netlist.microstrips, key=lambda net: net.target_length, reverse=True
        )
        for net in ordered:
            routes[net.name] = self._route_net(layout, net)
        runtime = time.perf_counter() - start_time
        return routes, runtime

    def route_layout(self, layout: Layout) -> Layout:
        """Return a copy of ``layout`` with all microstrips routed."""
        routes, runtime = self.route(layout)
        routed = layout.copy()
        for route in routes.values():
            routed.set_route(route)
        routed.metadata["router"] = "greedy-serpentine"
        routed.metadata["routing_runtime_s"] = runtime
        return routed

    # ------------------------------------------------------------------ #

    def _route_net(self, layout: Layout, net: MicrostripNet) -> RoutedMicrostrip:
        netlist = layout.netlist
        delta = netlist.technology.bend_compensation
        width = netlist.microstrip_width(net)
        start, end = layout.terminal_positions(net)

        direct = start.manhattan_distance(end)
        if net.target_length < direct - GEOM_TOL:
            # The placement put the pins too far apart for the required
            # length; route the direct connection and accept the error (a
            # real manual flow would resize the circuit at this point).
            path = self._direct_path(start, end, width)
            return RoutedMicrostrip(net.name, path)

        geometric_target = net.target_length
        path = self._direct_path(start, end, width)
        for _ in range(self.config.length_iterations):
            path = self._path_with_length(start, end, geometric_target, width)
            equivalent = path.equivalent_length(delta)
            error = net.target_length - equivalent
            if abs(error) <= self.config.length_tolerance:
                break
            geometric_target = max(direct, geometric_target + error)
        return RoutedMicrostrip(net.name, path)

    def _direct_path(self, start: Point, end: Point, width: float) -> ManhattanPath:
        """Plain L-shaped connection (or straight when aligned)."""
        if abs(start.x - end.x) <= GEOM_TOL or abs(start.y - end.y) <= GEOM_TOL:
            return ManhattanPath([start, end], width)
        return ManhattanPath([start, Point(end.x, start.y), end], width)

    def _path_with_length(
        self, start: Point, end: Point, geometric_target: float, width: float
    ) -> ManhattanPath:
        direct = start.manhattan_distance(end)
        extra = geometric_target - direct
        if extra <= GEOM_TOL:
            return self._direct_path(start, end, width)
        # Choose an amplitude so at most ``max_lobes`` lobes are used; a
        # deeper lobe (rather than more lobes) is what a human designer draws.
        amplitude = max(extra / (2.0 * self.config.max_lobes), 15.0)
        try:
            return serpentine_path(
                start,
                end,
                geometric_target,
                width=width,
                amplitude=amplitude,
                max_lobes=self.config.max_lobes,
            )
        except Exception as exc:  # pragma: no cover - defensive
            raise RoutingError(
                f"failed to build a serpentine of length {geometric_target:.1f} um "
                f"between {start.as_tuple()} and {end.as_tuple()}: {exc}"
            ) from exc
