"""Planar geometry primitives used by the layout and routing code."""

from repro.geometry.point import GEOM_TOL, Point, collinear_axis, midpoint
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.geometry.path import ManhattanPath, serpentine_path
from repro.geometry.overlap import overlap_extents

__all__ = [
    "GEOM_TOL",
    "Point",
    "midpoint",
    "collinear_axis",
    "Rect",
    "Segment",
    "ManhattanPath",
    "serpentine_path",
    "overlap_extents",
]
