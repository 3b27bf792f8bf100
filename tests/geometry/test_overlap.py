"""Unit tests for pairwise overlap analysis."""

import pytest

from repro.geometry import Rect, find_overlaps, overlap_extents


@pytest.fixture
def rects():
    return {
        "a": Rect(0, 0, 10, 10),
        "b": Rect(8, 8, 18, 18),
        "c": Rect(30, 30, 40, 40),
    }


class TestOverlapExtents:
    def test_partial_overlap(self):
        assert overlap_extents(Rect(0, 0, 10, 10), Rect(8, 8, 18, 18)) == (2.0, 2.0)

    def test_disjoint_clipped_to_zero(self):
        extents = overlap_extents(Rect(0, 0, 1, 1), Rect(5, 5, 6, 6))
        assert extents == (0.0, 0.0)


class TestFindOverlaps:
    def test_reports_only_overlapping_pairs(self, rects):
        reports = find_overlaps(rects)
        assert len(reports) == 1
        assert {reports[0].first, reports[0].second} == {"a", "b"}
        assert reports[0].area == pytest.approx(4.0)

    def test_ignore_pairs(self, rects):
        reports = find_overlaps(rects, ignore_pairs=[("b", "a")])
        assert reports == []
