"""Property-based tests (hypothesis) for the geometry substrate."""

import math

from hypothesis import assume, example, given, settings, strategies as st

from repro.geometry import ManhattanPath, Point, Rect, serpentine_path
from repro.geometry.overlap import overlap_extents

coordinates = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=0.1, max_value=200.0)


def intersection_area(a, b):
    common = a.intersection(b)
    return common.area if common is not None else 0.0


@st.composite
def points(draw):
    return Point(draw(coordinates), draw(coordinates))


@st.composite
def rects(draw):
    center = draw(points())
    return Rect.from_center(center, draw(positive), draw(positive))


@st.composite
def manhattan_paths(draw):
    """Random rectilinear paths of 2-8 points."""
    start = draw(points())
    steps = draw(st.lists(st.tuples(st.booleans(), coordinates), min_size=1, max_size=7))
    pts = [start]
    for horizontal, delta in steps:
        previous = pts[-1]
        if horizontal:
            pts.append(Point(previous.x + delta, previous.y))
        else:
            pts.append(Point(previous.x, previous.y + delta))
    return ManhattanPath(pts)


class TestPointProperties:
    @given(points(), points())
    def test_manhattan_dominates_euclidean(self, a, b):
        assert a.manhattan_distance(b) >= a.euclidean_distance(b) - 1e-9

    @given(points(), st.integers(min_value=0, max_value=7))
    def test_rotation_preserves_origin_distance(self, point, turns):
        rotated = point.rotated(turns)
        origin = Point(0.0, 0.0)
        assert math.isclose(
            rotated.euclidean_distance(origin),
            point.euclidean_distance(origin),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @given(points())
    def test_four_quarter_turns_identity(self, point):
        assert point.rotated(4).is_close(point)


class TestRectProperties:
    @given(rects(), st.floats(min_value=0.0, max_value=50.0))
    def test_expansion_grows_area(self, rect, margin):
        expanded = rect.expanded(margin)
        assert expanded.area >= rect.area
        assert expanded.contains_rect(rect)

    @given(rects(), rects())
    def test_overlap_symmetry(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)
        assert math.isclose(intersection_area(a, b), intersection_area(b, a), abs_tol=1e-6)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        common = a.intersection(b)
        if common is not None:
            assert a.contains_rect(common, tolerance=1e-6)
            assert b.contains_rect(common, tolerance=1e-6)

    @given(rects(), rects())
    def test_overlap_extents_match_intersection_area(self, a, b):
        ox, oy = overlap_extents(a, b)
        assert math.isclose(ox * oy, intersection_area(a, b), rel_tol=1e-9, abs_tol=1e-6)

    @given(rects())
    def test_bounding_of_self_is_self(self, rect):
        assert Rect.bounding([rect]) == rect


class TestPathProperties:
    @given(manhattan_paths())
    def test_length_is_sum_of_segments(self, path):
        assert math.isclose(
            path.geometric_length,
            sum(s.length for s in path.segments()),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @given(manhattan_paths())
    def test_bends_bounded_by_segments(self, path):
        assert 0 <= path.bend_count <= max(0, len(path.segments(drop_degenerate=True)) - 1)

    @given(manhattan_paths())
    # Chains of sub-tolerance steps: dropping each step against a tolerance
    # ball used to add a bend or lose more than the tolerance in length.
    @example(
        ManhattanPath(
            [Point(0.0, 0.0), Point(0.0, 1.0), Point(5.83e-7, 1.0), Point(1.166e-6, 1.0)]
        )
    )
    @example(
        ManhattanPath(
            [
                Point(0.0, 0.0),
                Point(0.0, 1.0),
                Point(0.0, 1.000000583),
                Point(5.83e-7, 1.000000583),
            ]
        )
    )
    def test_simplification_preserves_length_and_bends(self, path):
        simplified = path.simplified()
        assert math.isclose(
            simplified.geometric_length, path.geometric_length, rel_tol=1e-9, abs_tol=1e-6
        )
        assert simplified.bend_count <= path.bend_count
        assert simplified.start.is_close(path.start)
        assert simplified.end.is_close(path.end)

    @given(manhattan_paths())
    def test_reversal_preserves_metrics(self, path):
        reversed_path = path.reversed()
        assert math.isclose(
            reversed_path.geometric_length, path.geometric_length, rel_tol=1e-9
        )
        assert reversed_path.bend_count == path.bend_count

    @given(manhattan_paths(), st.floats(min_value=-10.0, max_value=10.0))
    def test_equivalent_length_linear_in_delta(self, path, delta):
        expected = path.geometric_length + path.bend_count * delta
        assert math.isclose(path.equivalent_length(delta), expected, rel_tol=1e-9, abs_tol=1e-6)


class TestSerpentineProperties:
    @settings(max_examples=40)
    @given(points(), points(), st.floats(min_value=1.0, max_value=800.0))
    def test_serpentine_hits_requested_length(self, start, end, extra):
        assume(not start.is_close(end))
        direct = start.manhattan_distance(end)
        assume(direct > 1.0)
        target = direct + extra
        path = serpentine_path(start, end, target)
        assert path.start.is_close(start, tolerance=1e-6)
        assert path.end.is_close(end, tolerance=1e-6)
        assert math.isclose(path.geometric_length, target, rel_tol=0.02, abs_tol=1.0)
