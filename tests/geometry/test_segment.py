"""Unit tests for axis-aligned microstrip segments."""

import pytest

from repro.errors import GeometryError
from repro.geometry import Point, Segment


class TestConstruction:
    def test_diagonal_rejected(self):
        with pytest.raises(GeometryError):
            Segment(Point(0, 0), Point(3, 3))

    def test_negative_width_rejected(self):
        with pytest.raises(GeometryError):
            Segment(Point(0, 0), Point(3, 0), width=-1.0)

    def test_degenerate_segment_allowed(self):
        segment = Segment(Point(1, 1), Point(1, 1))
        assert segment.is_degenerate
        assert segment.direction == "."
        assert segment.length == 0.0


class TestOrientationAndLength:
    @pytest.mark.parametrize(
        "start,end,direction,horizontal",
        [
            (Point(0, 0), Point(5, 0), "r", True),
            (Point(5, 0), Point(0, 0), "l", True),
            (Point(0, 0), Point(0, 5), "u", False),
            (Point(0, 5), Point(0, 0), "d", False),
        ],
    )
    def test_directions(self, start, end, direction, horizontal):
        segment = Segment(start, end)
        assert segment.direction == direction
        assert segment.is_horizontal is horizontal
        assert segment.length == pytest.approx(5.0)

    def test_reversed(self):
        segment = Segment(Point(0, 0), Point(5, 0))
        assert segment.reversed().direction == "l"


class TestOutlines:
    def test_outline_includes_width(self):
        segment = Segment(Point(0, 0), Point(10, 0), width=4.0)
        assert segment.outline().as_tuple() == (-2.0, -2.0, 12.0, 2.0)

    def test_bounding_box_adds_clearance(self):
        segment = Segment(Point(0, 0), Point(10, 0), width=4.0)
        assert segment.bounding_box(5.0).as_tuple() == (-7.0, -7.0, 17.0, 7.0)


class TestCrossing:
    def test_perpendicular_crossing(self):
        horizontal = Segment(Point(0, 5), Point(10, 5))
        vertical = Segment(Point(5, 0), Point(5, 10))
        assert horizontal.crosses(vertical)
        assert vertical.crosses(horizontal)

    def test_perpendicular_non_crossing(self):
        horizontal = Segment(Point(0, 5), Point(10, 5))
        vertical = Segment(Point(20, 0), Point(20, 10))
        assert not horizontal.crosses(vertical)

    def test_shared_endpoint_is_not_a_crossing(self):
        first = Segment(Point(0, 0), Point(5, 0))
        second = Segment(Point(5, 0), Point(5, 5))
        assert not first.crosses(second)

    def test_t_junction_through_interior_is_a_crossing(self):
        # The vertical segment ends exactly on the interior of the horizontal
        # one without sharing an endpoint: the centre-lines touch.
        horizontal = Segment(Point(0, 0), Point(10, 0))
        vertical = Segment(Point(5, 0), Point(5, 8))
        assert horizontal.crosses(vertical)

    def test_collinear_overlap_is_a_crossing(self):
        first = Segment(Point(0, 0), Point(6, 0))
        second = Segment(Point(4, 0), Point(10, 0))
        assert first.crosses(second)

    def test_collinear_disjoint_is_not(self):
        first = Segment(Point(0, 0), Point(3, 0))
        second = Segment(Point(5, 0), Point(10, 0))
        assert not first.crosses(second)

    def test_parallel_different_tracks(self):
        first = Segment(Point(0, 0), Point(5, 0))
        second = Segment(Point(0, 3), Point(5, 3))
        assert not first.crosses(second)

    def test_degenerate_never_crosses(self):
        first = Segment(Point(1, 1), Point(1, 1))
        second = Segment(Point(0, 1), Point(5, 1))
        assert not first.crosses(second)
