"""Unit tests for rectangles and bounding boxes."""

import pytest

from repro.errors import GeometryError
from repro.geometry import Point, Rect


class TestConstruction:
    def test_from_center(self):
        rect = Rect.from_center(Point(10, 10), 4.0, 6.0)
        assert rect.as_tuple() == (8.0, 7.0, 12.0, 13.0)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(GeometryError):
            Rect(5.0, 0.0, 1.0, 2.0)
        with pytest.raises(GeometryError):
            Rect.from_center(Point(0, 0), -1.0, 2.0)

    def test_bounding_of_collection(self):
        rects = [Rect(0, 0, 2, 2), Rect(5, -1, 6, 3)]
        assert Rect.bounding(rects).as_tuple() == (0.0, -1.0, 6.0, 3.0)

    def test_bounding_of_empty_collection_rejected(self):
        with pytest.raises(GeometryError):
            Rect.bounding([])


class TestProperties:
    def test_dimensions_and_area(self):
        rect = Rect(0, 0, 4, 3)
        assert rect.width == 4.0
        assert rect.height == 3.0
        assert rect.area == 12.0

    def test_center(self):
        assert Rect(0, 0, 4, 2).center == Point(2.0, 1.0)


class TestTransformations:
    def test_expansion(self):
        rect = Rect(0, 0, 2, 2).expanded(1.0)
        assert rect.as_tuple() == (-1.0, -1.0, 3.0, 3.0)

    def test_shrinking_beyond_inversion_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 2, 2).expanded(-2.0)

    def test_translation(self):
        assert Rect(0, 0, 1, 1).translated(2, 3).as_tuple() == (2.0, 3.0, 3.0, 4.0)


class TestPredicates:
    def test_contains_point(self):
        rect = Rect(0, 0, 4, 4)
        assert rect.contains_point(Point(2, 2))
        assert rect.contains_point(Point(0, 0))
        assert not rect.contains_point(Point(5, 2))
        assert Point(1, 1) in rect

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 9, 9))
        assert not outer.contains_rect(Rect(5, 5, 11, 9))

    def test_overlap_with_positive_area(self):
        assert Rect(0, 0, 4, 4).overlaps(Rect(2, 2, 6, 6))

    def test_touching_edges_do_not_overlap(self):
        assert not Rect(0, 0, 4, 4).overlaps(Rect(4, 0, 8, 4))

    def test_disjoint_rectangles(self):
        assert not Rect(0, 0, 1, 1).overlaps(Rect(5, 5, 6, 6))


class TestIntersectionAndSeparation:
    def test_intersection_rect(self):
        common = Rect(0, 0, 4, 4).intersection(Rect(2, 1, 6, 3))
        assert common is not None
        assert common.as_tuple() == (2.0, 1.0, 4.0, 3.0)

    def test_intersection_of_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(3, 3, 4, 4)) is None
