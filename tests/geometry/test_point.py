"""Unit tests for points."""

import pytest

from repro.errors import GeometryError
from repro.geometry import Point, collinear_axis, midpoint


class TestPointBasics:
    def test_construction_and_iteration(self):
        point = Point(3.0, 4.0)
        assert tuple(point) == (3.0, 4.0)
        assert point.as_tuple() == (3.0, 4.0)

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            Point(float("inf"), 0.0)
        with pytest.raises(GeometryError):
            Point(0.0, float("nan"))

    def test_immutability(self):
        point = Point(1.0, 2.0)
        with pytest.raises(AttributeError):
            point.x = 5.0  # type: ignore[misc]

    def test_translation_and_addition(self):
        point = Point(1.0, 2.0)
        assert point.translated(2.0, -1.0) == Point(3.0, 1.0)
        assert point + Point(1.0, 1.0) == Point(2.0, 3.0)
        assert point - Point(1.0, 1.0) == Point(0.0, 1.0)

    def test_scaling(self):
        assert Point(2.0, -3.0).scaled(2.0) == Point(4.0, -6.0)


class TestDistances:
    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan_distance(Point(3, 4)) == pytest.approx(7.0)

    def test_euclidean_distance(self):
        assert Point(0, 0).euclidean_distance(Point(3, 4)) == pytest.approx(5.0)

    def test_is_close(self):
        assert Point(1.0, 1.0).is_close(Point(1.0 + 1e-9, 1.0))
        assert not Point(1.0, 1.0).is_close(Point(1.1, 1.0))

    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(4, 6)) == Point(2.0, 3.0)


class TestRotationAndMirroring:
    @pytest.mark.parametrize(
        "turns,expected",
        [(0, (2.0, 1.0)), (1, (-1.0, 2.0)), (2, (-2.0, -1.0)), (3, (1.0, -2.0)), (4, (2.0, 1.0))],
    )
    def test_rotation_about_origin(self, turns, expected):
        rotated = Point(2.0, 1.0).rotated(turns)
        assert rotated.as_tuple() == pytest.approx(expected)

    def test_rotation_about_other_point(self):
        rotated = Point(2.0, 0.0).rotated(1, about=Point(1.0, 0.0))
        assert rotated.as_tuple() == pytest.approx((1.0, 1.0))


class TestCollinearAxis:
    def test_horizontal(self):
        assert collinear_axis(Point(0, 5), Point(9, 5)) == "h"

    def test_vertical(self):
        assert collinear_axis(Point(2, 0), Point(2, 8)) == "v"

    def test_diagonal_is_none(self):
        assert collinear_axis(Point(0, 0), Point(1, 1)) is None

    def test_coincident_points_report_horizontal(self):
        assert collinear_axis(Point(1, 1), Point(1, 1)) == "h"
