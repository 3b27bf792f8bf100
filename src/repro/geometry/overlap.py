"""Pairwise overlap analysis for collections of rectangles.

These helpers back the design-rule checker and the overlap-penalty terms of
the Phase-1 model: given a set of labelled rectangles they report which pairs
overlap and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Tuple

from repro.geometry.point import GEOM_TOL
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class OverlapReport:
    """Overlap between two labelled rectangles.

    Attributes
    ----------
    first, second:
        Labels of the two rectangles (e.g. device or segment identifiers).
    overlap_x, overlap_y:
        Overlap extents along x and y; both are positive for a real overlap.
    area:
        Overlap area (``overlap_x * overlap_y``).
    """

    first: str
    second: str
    overlap_x: float
    overlap_y: float

    @property
    def area(self) -> float:
        return self.overlap_x * self.overlap_y


def overlap_extents(a: Rect, b: Rect) -> Tuple[float, float]:
    """Return the (x, y) overlap extents of two rectangles (clipped at 0)."""
    overlap_x = min(a.xr, b.xr) - max(a.xl, b.xl)
    overlap_y = min(a.yu, b.yu) - max(a.yl, b.yl)
    return max(0.0, overlap_x), max(0.0, overlap_y)


def find_overlaps(
    rects: Dict[str, Rect],
    tolerance: float = GEOM_TOL,
    ignore_pairs: Iterable[Tuple[str, str]] = (),
) -> List[OverlapReport]:
    """Report every genuinely overlapping pair of labelled rectangles.

    ``ignore_pairs`` lists label pairs (in either order) that are allowed to
    overlap — e.g. a microstrip segment and the device pin it connects to.
    """
    ignored = {frozenset(pair) for pair in ignore_pairs}
    reports: List[OverlapReport] = []
    for (label_a, rect_a), (label_b, rect_b) in combinations(sorted(rects.items()), 2):
        if frozenset((label_a, label_b)) in ignored:
            continue
        overlap_x, overlap_y = overlap_extents(rect_a, rect_b)
        if overlap_x > tolerance and overlap_y > tolerance:
            reports.append(OverlapReport(label_a, label_b, overlap_x, overlap_y))
    return reports
