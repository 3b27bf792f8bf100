"""Unit tests for Manhattan paths, bend counting and serpentines."""

import pytest

from repro.errors import GeometryError
from repro.geometry import ManhattanPath, Point, serpentine_path


def l_shape(width=0.0):
    return ManhattanPath([Point(0, 0), Point(100, 0), Point(100, 50)], width)


class TestConstruction:
    def test_requires_two_points(self):
        with pytest.raises(GeometryError):
            ManhattanPath([Point(0, 0)])

    def test_requires_axis_alignment(self):
        with pytest.raises(GeometryError):
            ManhattanPath([Point(0, 0), Point(3, 4)])

    def test_negative_width_rejected(self):
        with pytest.raises(GeometryError):
            ManhattanPath([Point(0, 0), Point(1, 0)], width=-1.0)


class TestMetrics:
    def test_geometric_length(self):
        assert l_shape().geometric_length == pytest.approx(150.0)

    def test_bend_count_of_l_shape(self):
        assert l_shape().bend_count == 1

    def test_straight_path_has_no_bends(self):
        path = ManhattanPath([Point(0, 0), Point(50, 0), Point(120, 0)])
        assert path.bend_count == 0

    def test_bend_points(self):
        assert l_shape().bend_points() == [Point(100.0, 0.0)]

    def test_degenerate_points_do_not_hide_bends(self):
        path = ManhattanPath(
            [Point(0, 0), Point(100, 0), Point(100, 0), Point(100, 50)]
        )
        assert path.bend_count == 1

    def test_equivalent_length_with_negative_delta(self):
        path = l_shape()
        assert path.equivalent_length(-4.0) == pytest.approx(146.0)

    def test_equivalent_length_zero_delta_equals_geometric(self):
        path = l_shape()
        assert path.equivalent_length(0.0) == pytest.approx(path.geometric_length)

    def test_u_shape_has_two_bends(self):
        path = ManhattanPath(
            [Point(0, 0), Point(0, 40), Point(60, 40), Point(60, 0)]
        )
        assert path.bend_count == 2


class TestSegmentsAndOutlines:
    def test_segments_count(self):
        assert len(l_shape().segments()) == 2

    def test_drop_degenerate_segments(self):
        path = ManhattanPath([Point(0, 0), Point(0, 0), Point(10, 0)])
        assert len(path.segments(drop_degenerate=True)) == 1

    def test_outline_rects_and_bounding_box(self):
        path = l_shape(width=10.0)
        rects = path.outline_rects()
        assert len(rects) == 2
        box = path.bounding_box()
        assert box.xl == pytest.approx(-5.0)
        assert box.yu == pytest.approx(55.0)


class TestEditing:
    def test_simplified_removes_collinear_points(self):
        path = ManhattanPath(
            [Point(0, 0), Point(30, 0), Point(60, 0), Point(60, 40)]
        )
        simplified = path.simplified()
        assert len(simplified.points) == 3
        assert simplified.bend_count == path.bend_count
        assert simplified.geometric_length == pytest.approx(path.geometric_length)

    def test_simplified_removes_coincident_points(self):
        path = ManhattanPath(
            [Point(0, 0), Point(40, 0), Point(40, 0), Point(40, 30)]
        )
        assert len(path.simplified().points) == 3

    def test_simplified_preserves_endpoints(self):
        path = ManhattanPath([Point(0, 0), Point(20, 0), Point(40, 0)])
        simplified = path.simplified()
        assert simplified.start == path.start
        assert simplified.end == path.end

    def test_reversed(self):
        path = l_shape()
        assert path.reversed().start == path.end


class TestSmoothing:
    def test_smoothed_vertices_replace_corner(self):
        path = l_shape()
        vertices = path.smoothed_vertices(cut=10.0)
        # One corner becomes two vertices: start, cut-in, cut-out, end.
        assert len(vertices) == 4
        assert Point(90.0, 0.0) in vertices
        assert Point(100.0, 10.0) in vertices

    def test_smoothed_straight_path_unchanged(self):
        path = ManhattanPath([Point(0, 0), Point(100, 0)])
        assert path.smoothed_vertices(cut=10.0) == [Point(0, 0), Point(100, 0)]

    def test_negative_cut_rejected(self):
        with pytest.raises(GeometryError):
            l_shape().smoothed_vertices(cut=-1.0)


class TestSerpentine:
    def test_direct_length_when_no_extra_needed(self):
        path = serpentine_path(Point(0, 0), Point(100, 50), target_length=150.0)
        assert path.geometric_length == pytest.approx(150.0)

    def test_extra_length_is_absorbed(self):
        path = serpentine_path(Point(0, 0), Point(100, 50), target_length=300.0)
        assert path.geometric_length == pytest.approx(300.0, abs=1.0)

    def test_serpentine_adds_bends(self):
        direct = serpentine_path(Point(0, 0), Point(100, 50), target_length=150.0)
        detoured = serpentine_path(Point(0, 0), Point(100, 50), target_length=400.0)
        assert detoured.bend_count > direct.bend_count

    def test_target_shorter_than_direct_rejected(self):
        with pytest.raises(GeometryError):
            serpentine_path(Point(0, 0), Point(100, 0), target_length=50.0)

    def test_vertical_connection(self):
        path = serpentine_path(Point(50, 0), Point(50, 200), target_length=320.0)
        assert path.geometric_length == pytest.approx(320.0, abs=1.0)
        assert path.start.is_close(Point(50, 0))
        assert path.end.is_close(Point(50, 200))

    def test_endpoints_always_preserved(self):
        path = serpentine_path(Point(10, 20), Point(210, 90), target_length=500.0)
        assert path.start.is_close(Point(10, 20))
        assert path.end.is_close(Point(210, 90))
