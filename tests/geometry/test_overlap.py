"""Unit tests for the overlap extents of two rectangles."""

from repro.geometry import Rect, overlap_extents


class TestOverlapExtents:
    def test_partial_overlap(self):
        assert overlap_extents(Rect(0, 0, 10, 10), Rect(8, 8, 18, 18)) == (2.0, 2.0)

    def test_disjoint_clipped_to_zero(self):
        extents = overlap_extents(Rect(0, 0, 1, 1), Rect(5, 5, 6, 6))
        assert extents == (0.0, 0.0)

