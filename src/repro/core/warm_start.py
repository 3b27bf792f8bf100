"""Warm-start construction for the progressive flow's MILP solves.

The three phases of the P-ILP flow solve closely related models: Phase 2
re-solves the geometry Phase 1 produced with real device outlines, and every
Phase-3 iteration perturbs the previous layout only locally.  Each solve
nevertheless used to start cold, spending most of its budget re-discovering
an incumbent it essentially already had.

This module rebuilds a *complete* variable assignment for a freshly built
:class:`~repro.core.model_builder.BuildResult` from known geometry — device
centres, rotations and per-net chain points — including all derived
variables: direction binaries, segment lengths, bounding boxes, bend
indicators, length slacks, spacing-pair selectors and overlap slacks, and
the objective envelope variables.  The assignment is handed to HiGHS as a
warm start: a search injects it with ``setSolution``, and a repair pins its
integer columns and solves the remaining LP.

The assignment does not need to be perfectly feasible — a search treats it
as a seed, not as an answer — but the closer it is, the more of the solver
budget goes into *improving* rather than *finding* solutions.

Checkpoint resume (:mod:`repro.core.checkpoint`) rides the same machinery:
a resumed solve deserialises the checkpointed phase-boundary layout and
hands it to the next phase, which warm-starts from that geometry exactly as
it would from a freshly solved predecessor — the JSON round trip preserves
coordinates bit-exactly, so the warm start (and therefore the solve) is
identical to the uninterrupted run's.

:func:`solve_phase` is the one way a phase runs: Phase 1, Phase 2, each
Phase-3 iteration and the exact flow build, warm start, solve, extract and
account through it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.circuit.device import Rotation
from repro.core.model_builder import BuildResult, NetVars, SegmentVars
from repro.core.result import PhaseResult
from repro.core.seed import choose_l_orientations, l_corner
from repro.errors import InfeasibleModelError
from repro.geometry.point import Point
from repro.ilp.backends.highs import HighsBackend
from repro.ilp.expr import LinExpr, Variable
from repro.ilp.solution import Solution

#: Coordinate differences below this are treated as zero-length segments.
_ZERO_TOL = 1.0e-9


def _clamp(value: float, var: Variable) -> float:
    return min(max(float(value), var.lb), var.ub)


def _set(values: Dict[Variable, float], var: Variable, value: float) -> None:
    values[var] = _clamp(value, var)


def _resample_polyline(points: Sequence[Point], count: int) -> List[Point]:
    """Resample a polyline to ``count`` points, evenly by arc length."""
    if count < 2:
        raise ValueError("need at least two chain points")
    if len(points) == count:
        return list(points)
    if len(points) < 2:
        return [points[0]] * count if points else []
    lengths = [
        abs(b.x - a.x) + abs(b.y - a.y) for a, b in zip(points, points[1:])
    ]
    total = sum(lengths)
    if total <= _ZERO_TOL:
        return [points[0]] * count
    samples: List[Point] = []
    for index in range(count):
        target = total * index / (count - 1)
        walked = 0.0
        for (a, b), seg_len in zip(zip(points, points[1:]), lengths):
            if walked + seg_len >= target - _ZERO_TOL:
                ratio = 0.0 if seg_len <= _ZERO_TOL else (target - walked) / seg_len
                ratio = min(max(ratio, 0.0), 1.0)
                samples.append(
                    Point(a.x + ratio * (b.x - a.x), a.y + ratio * (b.y - a.y))
                )
                break
            walked += seg_len
        else:
            samples.append(points[-1])
    return samples


def manhattan_guess(
    start: Point, end: Point, count: int, vertical_first: bool = False
) -> List[Point]:
    """An L-shaped chain guess between two points (horizontal-first by default)."""
    corner = l_corner(start, end, vertical_first)
    return _resample_polyline([start, corner, end], count)


def _segment_direction(dx: float, dy: float) -> Optional[str]:
    """Dominant axis direction of a step, or ``None`` for zero length."""
    if abs(dx) <= _ZERO_TOL and abs(dy) <= _ZERO_TOL:
        return None
    if abs(dx) >= abs(dy):
        return "r" if dx > 0 else "l"
    return "u" if dy > 0 else "d"


def _assign_net(
    model,
    values: Dict[Variable, float],
    net_vars: NetVars,
    points: Sequence[Point],
    delta: float,
    margin: float,
) -> None:
    """Assign chain coordinates, directions, lengths, boxes and bends."""
    count = len(net_vars.xs)
    sampled = _resample_polyline(list(points), count)
    for x_var, y_var, point in zip(net_vars.xs, net_vars.ys, sampled):
        _set(values, x_var, point.x)
        _set(values, y_var, point.y)

    # Direction binaries: dominant axis per step; zero-length segments
    # inherit their neighbour's direction so no-reversal rows stay happy.
    raw_directions: List[Optional[str]] = []
    for index in range(count - 1):
        dx = values[net_vars.xs[index + 1]] - values[net_vars.xs[index]]
        dy = values[net_vars.ys[index + 1]] - values[net_vars.ys[index]]
        raw_directions.append(_segment_direction(dx, dy))
    directions: List[str] = []
    for index, direction in enumerate(raw_directions):
        if direction is None:
            if directions:
                direction = directions[-1]
            else:
                direction = next(
                    (d for d in raw_directions[index + 1 :] if d is not None), "r"
                )
        directions.append(direction)

    for segment, direction in zip(net_vars.segments, directions):
        _assign_segment(values, net_vars, segment, direction, margin)

    # Bend indicators at interior chain points.
    total_bends = 0
    for bend_index, (previous, current) in enumerate(
        zip(directions, directions[1:])
    ):
        prev_h = previous in ("l", "r")
        cur_h = current in ("l", "r")
        bend = int(prev_h != cur_h)
        total_bends += bend
        segment = net_vars.segments[bend_index + 1]
        _assign_bend_aux(model, values, net_vars, segment, prev_h, cur_h)

    if net_vars.length_slack is not None:
        equivalent = (
            sum(values[segment.length] for segment in net_vars.segments)
            + delta * total_bends
        )
        _set(
            values,
            net_vars.length_slack,
            abs(equivalent - net_vars.target_length),
        )


def _assign_segment(
    values: Dict[Variable, float],
    net_vars: NetVars,
    segment: SegmentVars,
    direction: str,
    margin: float,
) -> None:
    x_a = values[net_vars.xs[segment.index]]
    y_a = values[net_vars.ys[segment.index]]
    x_b = values[net_vars.xs[segment.index + 1]]
    y_b = values[net_vars.ys[segment.index + 1]]
    for name, var in segment.directions.items():
        _set(values, var, 1.0 if name == direction else 0.0)
    if direction in ("l", "r"):
        length = abs(x_b - x_a)
    else:
        length = abs(y_b - y_a)
    _set(values, segment.length, length)
    # The expanded box hugs the segment at exactly the clearance margin the
    # builder used, matching the cover rows ``box <= point -+ margin``.
    _set(values, segment.box_xl, min(x_a, x_b) - margin)
    _set(values, segment.box_xr, max(x_a, x_b) + margin)
    _set(values, segment.box_yl, min(y_a, y_b) - margin)
    _set(values, segment.box_yu, max(y_a, y_b) + margin)


def _assign_bend_aux(
    model,
    values: Dict[Variable, float],
    net_vars: NetVars,
    segment: SegmentVars,
    prev_h: bool,
    cur_h: bool,
) -> None:
    """Set ``t_hv``/``u_hv``/``t_vh``/``u_vh``/``t`` at one chain point.

    The bend auxiliaries satisfy ``(#horizontal prev) + (#vertical cur) ==
    2 t_hv + u_hv`` (and the transposed row), so their values follow
    directly from the two adjoining directions.  They live on the model
    rather than on :class:`SegmentVars`, hence the name lookup.
    """
    # The builder names the aux binaries with the *current* segment index.
    prefix = f"net[{net_vars.name}].bend[{segment.index}]"
    hv_sum = int(prev_h) + int(not cur_h)
    vh_sum = int(not prev_h) + int(cur_h)
    assignments = {
        f"{prefix}.t_hv": 1.0 if hv_sum == 2 else 0.0,
        f"{prefix}.u_hv": 1.0 if hv_sum == 1 else 0.0,
        f"{prefix}.t_vh": 1.0 if vh_sum == 2 else 0.0,
        f"{prefix}.u_vh": 1.0 if vh_sum == 1 else 0.0,
        f"{prefix}.t": 1.0 if prev_h != cur_h else 0.0,
    }
    for name, value in assignments.items():
        try:
            var = model.get_var(name)
        except Exception:  # pragma: no cover - defensive
            continue
        _set(values, var, value)


def warm_start_from_geometry(
    build: BuildResult,
    device_points: Mapping[str, Point],
    chain_points: Mapping[str, Sequence[Point]],
    rotations: Optional[Mapping[str, Rotation]] = None,
) -> Dict[Variable, float]:
    """Build a full warm-start assignment from known geometry.

    Parameters
    ----------
    build:
        The freshly built model to warm start.
    device_points:
        Device centre per device name (missing devices default to their
        window centre via bound clamping of ``0``).
    chain_points:
        Chain-point polyline per net name; resampled to the model's chain
        count when the lengths differ.
    rotations:
        Device orientations; defaults to each device's fixed rotation.
    """
    rotations = rotations or {}
    model = build.model
    technology = build.netlist.technology
    values: Dict[Variable, float] = {}

    # -- devices --------------------------------------------------------- #
    for name, device_vars in build.devices.items():
        point = device_points.get(name)
        if point is None:
            continue
        _set(values, device_vars.x, point.x)
        _set(values, device_vars.y, point.y)
        if device_vars.rotation_vars:
            chosen = rotations.get(name, device_vars.fixed_rotation)
            if chosen not in device_vars.rotation_vars:
                chosen = next(iter(device_vars.rotation_vars))
            for rotation, var in device_vars.rotation_vars.items():
                _set(values, var, 1.0 if rotation is chosen else 0.0)

    # Pad boundary side selectors: pick the boundary the pad is closest to.
    area = build.netlist.area
    for name, device_vars in build.devices.items():
        if not device_vars.boundary_sides:
            continue
        x = values.get(device_vars.x, 0.0)
        y = values.get(device_vars.y, 0.0)
        half_w = device_vars.half_width.value(values) if _evaluable(
            device_vars.half_width, values
        ) else 0.0
        half_h = device_vars.half_height.value(values) if _evaluable(
            device_vars.half_height, values
        ) else 0.0
        distances = {
            "left": abs(x - half_w),
            "right": abs(area.width - half_w - x),
            "bottom": abs(y - half_h),
            "top": abs(area.height - half_h - y),
        }
        chosen_side = min(distances, key=distances.get)
        for side, var in device_vars.boundary_sides.items():
            _set(values, var, 1.0 if side == chosen_side else 0.0)

    # -- nets ------------------------------------------------------------- #
    delta = technology.bend_compensation
    for name, net_vars in build.nets.items():
        points = chain_points.get(name)
        if not points:
            continue
        margin = (
            build.netlist.microstrip_width(name) / 2.0
            + technology.clearance
            + build.options.extra_segment_margin
        )
        _assign_net(model, values, net_vars, points, delta, margin)

    # -- spacing pairs ----------------------------------------------------- #
    for pair in build.spacing_pairs:
        _assign_pair(values, pair)

    # -- objective envelopes ----------------------------------------------- #
    if build.max_bend_var is not None:
        bend_totals = [
            net_vars.bend_count.value(values)
            for net_vars in build.nets.values()
            if _evaluable(net_vars.bend_count, values)
        ]
        if bend_totals:
            _set(values, build.max_bend_var, max(bend_totals))
    if build.max_length_slack_var is not None:
        slacks = [
            values[net_vars.length_slack]
            for net_vars in build.nets.values()
            if net_vars.length_slack is not None
            and net_vars.length_slack in values
        ]
        if slacks:
            _set(values, build.max_length_slack_var, max(slacks))
    return values


def warm_start_from_seeds(
    build: BuildResult, seeds: Mapping[str, Point]
) -> Dict[Variable, float]:
    """Warm start the Phase-1 model from a seed placement.

    Every net gets an L-shaped chain guess between its two terminal seed
    points, turning at the corner :func:`~repro.core.seed.choose_l_orientations`
    picked so that as few net pairs cross as it can find.  Phase 1 repairs
    this guess without changing its discrete choices, so a crossing left in
    it stays in the planar routing.
    """
    vertical_first = choose_l_orientations(build.netlist, seeds)
    chain_points: Dict[str, List[Point]] = {}
    for name, net_vars in build.nets.items():
        net = build.netlist.microstrip(name)
        start = seeds.get(net.start.device)
        end = seeds.get(net.end.device)
        if start is None or end is None:
            continue
        chain_points[name] = manhattan_guess(
            start, end, len(net_vars.xs), vertical_first[name]
        )
    return warm_start_from_geometry(build, dict(seeds), chain_points)


def solve_phase_model(
    build: BuildResult,
    settings,
    warm_values,
    repair: bool = False,
) -> Solution:
    """Solve a P-ILP phase model from its warm start.

    ``settings`` is a :class:`~repro.core.config.PhaseSettings`.  The solve
    is one progressive (stall-terminated) HiGHS run seeded with
    ``warm_values``.

    ``repair`` makes the phase repair instead of search: the LP repair of
    the warm start (:meth:`~repro.ilp.backends.highs.HighsBackend.repair`)
    is returned as is, and the MIP search runs only when the pinned LP has
    no optimum.
    """
    if repair:
        repaired = HighsBackend().repair(build.model, warm_values)
        if repaired is not None:
            return repaired
    return build.model.solve(
        time_limit=settings.time_limit,
        mip_gap=settings.mip_gap,
        warm_start=warm_values,
        progressive=True,
    )


def solve_phase(
    phase: str,
    build_model: Callable[[], BuildResult],
    solve: Callable[[BuildResult], Solution],
    metadata: Mapping[str, object],
    fallback: Optional[Callable[[], PhaseResult]] = None,
) -> PhaseResult:
    """Build, solve and read back one phase model.

    ``build_model`` builds the model; ``solve`` computes the warm start
    and solves the model; ``metadata`` goes into the extracted layout's
    metadata along with ``solver_status``.  The result's ``runtime`` covers
    the build, the warm start, the solve and the layout extraction.

    When the solve finds no feasible point, ``fallback`` runs the phase's
    next attempt and this attempt's wall, model-build and solver seconds
    are folded into its result (:meth:`PhaseResult.after_attempts`).
    Without a fallback the phase fails.

    Raises
    ------
    InfeasibleModelError
        If the solve, and the fallback if any, finds no feasible point.
    """
    start = time.perf_counter()
    build = build_model()
    model_build_time = time.perf_counter() - start
    solution = solve(build)
    if not solution.is_feasible:
        wall = time.perf_counter() - start
        if fallback is not None:
            failed = {
                "wall_s": wall,
                "model_build_s": model_build_time,
                "solver_s": solution.solve_time,
            }
            return fallback().after_attempts([failed])
        raise InfeasibleModelError(
            f"{phase} for {build.netlist.name!r} returned {solution.status.value} "
            f"after {wall:.1f}s ({build.model.statistics()})"
        )
    layout = build.extract_layout(
        solution, metadata={**metadata, "solver_status": solution.status.value}
    )
    return PhaseResult(
        phase=phase,
        layout=layout,
        solution=solution,
        runtime=time.perf_counter() - start,
        length_errors=build.length_errors(solution),
        bend_counts=build.bend_counts(solution),
        total_overlap=build.total_overlap(solution),
        model_statistics=build.model.statistics(),
        model_build_time=model_build_time,
    )


def _evaluable(expr: LinExpr, values: Mapping[Variable, float]) -> bool:
    return all(var in values for var in expr.coeffs)


def _assign_pair(values: Dict[Variable, float], pair) -> None:
    """Choose the least-violated separation direction for one pair."""
    edges = []
    for block in (pair.first, pair.second):
        exprs = (block.xl, block.xr, block.yl, block.yu)
        if not all(_evaluable(expr, values) for expr in exprs):
            return
        edges.append([expr.value(values) for expr in exprs])
    (f_xl, f_xr, f_yl, f_yu), (s_xl, s_xr, s_yl, s_yu) = edges
    # Violations of rows (16)-(19) without big-M relief or slack.
    violations = [
        f_xr - s_xl,  # first left of second
        s_yu - f_yl,  # second below first
        s_xr - f_xl,  # second left of first (first right of second)
        f_yu - s_yl,  # first below second
    ]
    chosen = min(range(4), key=lambda k: (violations[k], k))
    for k, selector in enumerate(pair.selectors):
        _set(values, selector, 0.0 if k == chosen else 1.0)
    overlap = max(0.0, violations[chosen])
    if pair.slack_h is not None:
        _set(values, pair.slack_h, overlap if chosen in (0, 2) else 0.0)
    if pair.slack_v is not None:
        _set(values, pair.slack_v, overlap if chosen in (1, 3) else 0.0)
