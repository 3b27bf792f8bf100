"""Overlap extents of two rectangles.

The design-rule checker measures each device/segment overlap with
:func:`overlap_extents`.
"""

from __future__ import annotations

from typing import Tuple

from repro.geometry.rect import Rect


def overlap_extents(a: Rect, b: Rect) -> Tuple[float, float]:
    """Return the (x, y) overlap extents of two rectangles (clipped at 0)."""
    overlap_x = min(a.xr, b.xr) - max(a.xl, b.xl)
    overlap_y = min(a.yu, b.yu) - max(a.yl, b.yl)
    return max(0.0, overlap_x), max(0.0, overlap_y)
