"""Manhattan paths: ordered chains of axis-aligned segments.

A :class:`ManhattanPath` is the geometric realisation of a routed microstrip:
the ordered list of chain-point coordinates.  It provides the quantities the
paper reasons about — geometric length, bend count, equivalent length with
the per-bend compensation ``δ`` (Section 2.2), and the smoothed (diagonal
shortcut) outline of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.errors import GeometryError
from repro.geometry.point import GEOM_TOL, Point, collinear_axis
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment


@dataclass(frozen=True)
class ManhattanPath:
    """An ordered rectilinear path through chain points.

    Attributes
    ----------
    points:
        Chain-point coordinates in routing order.  Consecutive points must be
        axis-aligned (share an x or y coordinate).  At least two points are
        required.
    width:
        Microstrip width applied to every segment.
    """

    points: Tuple[Point, ...]
    width: float = 0.0

    def __init__(self, points: Iterable[Point], width: float = 0.0) -> None:
        pts = tuple(points)
        if len(pts) < 2:
            raise GeometryError("a path needs at least two points")
        if width < 0:
            raise GeometryError(f"path width must be non-negative, got {width}")
        for first, second in zip(pts, pts[1:]):
            if collinear_axis(first, second) is None:
                raise GeometryError(
                    "path points must be axis-aligned pairwise: "
                    f"{first.as_tuple()} .. {second.as_tuple()}"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "width", float(width))

    # -- segments ---------------------------------------------------------------

    def segments(self, drop_degenerate: bool = False) -> List[Segment]:
        """Return the path as consecutive :class:`Segment` objects.

        ``drop_degenerate`` removes zero-length segments, which occur when two
        chain points coincide (the paper's Phase 3 deletes such chain points).
        """
        segments = [
            Segment(a, b, self.width) for a, b in zip(self.points, self.points[1:])
        ]
        if drop_degenerate:
            segments = [s for s in segments if not s.is_degenerate]
        return segments

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]

    # -- metrics ------------------------------------------------------------------

    @property
    def geometric_length(self) -> float:
        """Sum of segment centre-line lengths (equation (7))."""
        return sum(s.length for s in self.segments())

    @property
    def bend_count(self) -> int:
        """Number of direction changes along the path (equation (11)).

        Degenerate (zero-length) segments are skipped so that a coincident
        chain point does not spuriously hide or create a bend.
        """
        directions = [s.direction for s in self.segments(drop_degenerate=True)]
        bends = 0
        for previous, current in zip(directions, directions[1:]):
            if previous != current:
                bends += 1
        return bends

    def bend_points(self) -> List[Point]:
        """Return the chain points at which a real bend occurs."""
        bends = []
        segments = self.segments(drop_degenerate=True)
        for previous, current in zip(segments, segments[1:]):
            if previous.direction != current.direction:
                bends.append(previous.end)
        return bends

    def equivalent_length(self, delta: float) -> float:
        """Electrical (equivalent) length: geometric + ``delta`` per bend.

        Implements equation (12): after every 90° bend is smoothed into a
        diagonal shortcut, the propagation behaves like a straight line of
        length ``l_v + l_h + δ``; summing over the path gives
        ``l_geometric + n_bends * δ``.
        """
        return self.geometric_length + self.bend_count * delta

    def outline_rects(self, clearance: float = 0.0) -> List[Rect]:
        """Bounding rectangles of all segments, expanded by ``clearance``."""
        rects = []
        for segment in self.segments(drop_degenerate=True):
            rects.append(segment.bounding_box(clearance) if clearance else segment.outline())
        return rects

    def bounding_box(self, clearance: float = 0.0) -> Rect:
        """Overall bounding box of the path."""
        return Rect.bounding(self.outline_rects(clearance))

    # -- editing ------------------------------------------------------------------

    def simplified(self) -> "ManhattanPath":
        """Remove chain points that do not bend the path.

        Mirrors the chain-point deletion step of Phase 3: consecutive
        collinear segments are merged and coincident points are dropped.  End
        points are always preserved.

        A point is dropped only when joining its neighbours directly keeps
        the geometric length (within ``_MERGE_SLACK``) and the run of
        non-degenerate directions, so the bend count is unchanged.  Comparing
        against the kept neighbour rather than a tolerance ball keeps chains
        of sub-tolerance steps from adding up to a length or bend change.
        """
        result: List[Point] = [self.points[0]]
        for here, after in zip(self.points[1:-1], self.points[2:]):
            if _merge_is_neutral(result[-1], here, after):
                continue
            result.append(here)
        result.append(self.points[-1])
        return ManhattanPath(result, self.width)

    def reversed(self) -> "ManhattanPath":
        """Return the path traversed end-to-start."""
        return ManhattanPath(tuple(reversed(self.points)), self.width)

    # -- smoothing -----------------------------------------------------------------

    def smoothed_vertices(self, cut: float) -> List[Point]:
        """Return the vertex list after replacing 90° corners by diagonals.

        Each bend corner is replaced by two vertices ``cut`` micrometres away
        from the corner along the incoming and outgoing segments (Figure 3).
        ``cut`` is clipped to half of the adjacent segment lengths so short
        segments are never inverted.
        """
        if cut < 0:
            raise GeometryError(f"cut must be non-negative, got {cut}")
        segments = self.segments(drop_degenerate=True)
        if not segments:
            return [self.start, self.end]
        vertices: List[Point] = [segments[0].start]
        for previous, current in zip(segments, segments[1:]):
            corner = previous.end
            if previous.direction == current.direction:
                vertices.append(corner)
                continue
            cut_in = min(cut, previous.length / 2.0)
            cut_out = min(cut, current.length / 2.0)
            before = _step_back(previous, cut_in)
            after = _step_forward(current, cut_out)
            vertices.append(before)
            vertices.append(after)
        vertices.append(segments[-1].end)
        return vertices


# Largest length change one dropped chain point may cause in ``simplified``:
# float rounding of a straight merge, far below ``GEOM_TOL``.
_MERGE_SLACK = 1.0e-9


def _merge_is_neutral(before: Point, here: Point, after: Point) -> bool:
    """True if ``before -> after`` has the length and bends of ``before -> here -> after``."""
    if collinear_axis(before, after) is None:
        return False
    detour = before.manhattan_distance(here) + here.manhattan_distance(after)
    if detour - before.manhattan_distance(after) > _MERGE_SLACK:
        return False
    runs = []
    for direction in (Segment(before, here).direction, Segment(here, after).direction):
        if direction != "." and direction not in runs[-1:]:
            runs.append(direction)
    merged = Segment(before, after).direction
    return runs == ([] if merged == "." else [merged])


def _step_back(segment: Segment, distance: float) -> Point:
    """Point ``distance`` before the end of ``segment`` along its direction."""
    direction = segment.direction
    if direction == "r":
        return Point(segment.end.x - distance, segment.end.y)
    if direction == "l":
        return Point(segment.end.x + distance, segment.end.y)
    if direction == "u":
        return Point(segment.end.x, segment.end.y - distance)
    if direction == "d":
        return Point(segment.end.x, segment.end.y + distance)
    return segment.end


def _step_forward(segment: Segment, distance: float) -> Point:
    """Point ``distance`` after the start of ``segment`` along its direction."""
    direction = segment.direction
    if direction == "r":
        return Point(segment.start.x + distance, segment.start.y)
    if direction == "l":
        return Point(segment.start.x - distance, segment.start.y)
    if direction == "u":
        return Point(segment.start.x, segment.start.y + distance)
    if direction == "d":
        return Point(segment.start.x, segment.start.y - distance)
    return segment.start


def serpentine_path(
    start: Point,
    end: Point,
    target_length: float,
    width: float = 0.0,
    amplitude: float = 20.0,
    max_lobes: int = 64,
) -> ManhattanPath:
    """Build a rectilinear path of (approximately) a required length.

    This helper is used by the *manual-like* baseline router: when the direct
    Manhattan connection is shorter than the required microstrip length, the
    extra length is absorbed in serpentine detours of the given ``amplitude``.
    Every added lobe contributes bends — which is precisely the behaviour the
    paper criticises in conventional length-matching routing.

    The resulting path length is within one ``amplitude`` of ``target_length``
    whenever the target exceeds the direct Manhattan distance.
    """
    direct = start.manhattan_distance(end)
    if target_length < direct - GEOM_TOL:
        raise GeometryError(
            f"target length {target_length} is shorter than the direct distance {direct}"
        )
    if amplitude <= 0:
        raise GeometryError(f"amplitude must be positive, got {amplitude}")

    points: List[Point] = [start]
    extra = target_length - direct

    # Route the x span first, weaving vertically to burn the extra length.
    dx = end.x - start.x
    dy = end.y - start.y
    x_direction = 1.0 if dx >= 0 else -1.0
    y_direction = 1.0 if dy >= 0 else -1.0

    lobes_needed = 0
    if extra > GEOM_TOL:
        lobes_needed = min(max_lobes, max(1, int(round(extra / (2.0 * amplitude)))))
        lobe_depth = extra / (2.0 * lobes_needed)
    else:
        lobe_depth = 0.0

    span_x = abs(dx)
    span_y = abs(dy)
    if lobes_needed and span_x > GEOM_TOL:
        # Weave vertically while progressing along x.  Each lobe climbs away
        # from the base line and back, adding 2 * lobe_depth of length.
        half_pitch = span_x / (2.0 * lobes_needed)
        cursor = Point(start.x, start.y)
        for _ in range(lobes_needed):
            cursor = Point(cursor.x + x_direction * half_pitch, cursor.y)
            points.append(cursor)
            cursor = Point(cursor.x, start.y + y_direction * lobe_depth)
            points.append(cursor)
            cursor = Point(cursor.x + x_direction * half_pitch, cursor.y)
            points.append(cursor)
            cursor = Point(cursor.x, start.y)
            points.append(cursor)
        points.append(Point(end.x, start.y))
        points.append(Point(end.x, end.y))
    elif lobes_needed and span_y > GEOM_TOL:
        # Purely vertical connection: weave horizontally instead.
        half_pitch = span_y / (2.0 * lobes_needed)
        cursor = Point(start.x, start.y)
        for _ in range(lobes_needed):
            cursor = Point(cursor.x, cursor.y + y_direction * half_pitch)
            points.append(cursor)
            cursor = Point(start.x + lobe_depth, cursor.y)
            points.append(cursor)
            cursor = Point(cursor.x, cursor.y + y_direction * half_pitch)
            points.append(cursor)
            cursor = Point(start.x, cursor.y)
            points.append(cursor)
        points.append(Point(start.x, end.y))
        points.append(Point(end.x, end.y))
    elif lobes_needed:
        # Coincident end points that still need length: a rectangular loop
        # is not representable without self-overlap, so stack the detour as
        # a single out-and-back spur of the required half length.
        spur = extra / 2.0
        points.append(Point(start.x + spur, start.y))
        points.append(Point(end.x, end.y))
    else:
        # No extra length needed: a plain L-shaped connection.
        points.append(Point(end.x, start.y))
        points.append(Point(end.x, end.y))

    deduplicated: List[Point] = [points[0]]
    for point in points[1:]:
        if not point.is_close(deduplicated[-1]):
            deduplicated.append(point)
    if len(deduplicated) == 1:
        deduplicated.append(end)
    return ManhattanPath(deduplicated, width)
