"""Bend smoothing: turning 90° corners into diagonal shortcuts.

Section 2.2 / Figure 3 of the paper: every remaining right-angle bend in the
final layout is replaced by a 45° diagonal shortcut to reduce the
discontinuity loss.  The ILP works entirely on the un-smoothed rectilinear
skeleton and accounts for smoothing through the equivalent-length
compensation ``δ``; smoothing itself is a pure post-processing step applied
here when exporting the final geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.layout.layout import Layout
from repro.layout.routing import RoutedMicrostrip


@dataclass(frozen=True)
class SmoothedRoute:
    """The octilinear (45°-bend) realisation of one routed microstrip."""

    net_name: str
    vertices: tuple
    width: float

    @property
    def length(self) -> float:
        """Physical centre-line length of the smoothed polyline."""
        total = 0.0
        for a, b in zip(self.vertices, self.vertices[1:]):
            total += math.hypot(b.x - a.x, b.y - a.y)
        return total


def default_cut_length(delta: float, width: float) -> float:
    """Choose the corner cut-back distance for smoothing.

    A diagonal shortcut that cuts back ``c`` on each arm replaces ``2c`` of
    Manhattan length by ``c * sqrt(2)`` of diagonal, i.e. it shortens the
    physical path by ``c (2 - sqrt 2)``.  The electrical compensation ``δ``
    combines this geometric shortening with the (small) excess phase of the
    discontinuity, so when ``δ`` is negative we recover the geometric cut from
    it; otherwise we fall back to one line width, the customary mitre size.
    """
    if delta < 0:
        return -delta / (2.0 - math.sqrt(2.0))
    return max(width, 1.0)


def smooth_route(
    route: RoutedMicrostrip, delta: float, width: float | None = None
) -> SmoothedRoute:
    """Smooth one routed microstrip."""
    width = route.width if width is None else width
    cut = default_cut_length(delta, width if width > 0 else 1.0)
    vertices = route.path.smoothed_vertices(cut)
    return SmoothedRoute(route.net_name, tuple(vertices), width)


def smooth_layout(layout: Layout) -> Dict[str, SmoothedRoute]:
    """Smooth every routed microstrip of a layout.

    Returns a mapping from net name to its smoothed polyline.  The layout
    itself is not modified — smoothing is a view used by exports and by the
    RF substrate when it wants physical (rather than equivalent) lengths.
    """
    delta = layout.netlist.technology.bend_compensation
    smoothed: Dict[str, SmoothedRoute] = {}
    for route in layout.routes:
        width = route.width or layout.netlist.microstrip_width(route.net_name)
        smoothed[route.net_name] = smooth_route(route, delta, width)
    return smoothed
