"""Phase 3 — iterative layout refinement (Section 5.3).

Starting from the Phase-2 layout, the optimisation problem (26)-(28) is
solved repeatedly.  Between solves the model itself is refined:

* **chain-point deletion** — chain points at which no bend was formed are
  removed (the two adjacent segments run in the same direction, so the point
  only enlarges the model),
* **chain-point insertion** — nets whose equivalent length still misses the
  target, or which are involved in residual overlap, receive an extra chain
  point so the router can fold in a detour (Figure 10),
* **device rotation** — devices touching the remaining problems are allowed
  to pick a new orientation.

Chain points and devices stay confined to τ_d windows around their current
coordinates.  The penalty weights on unmatched length and overlap escalate
from iteration to iteration, and once the length error is already small the
iteration switches to the hard exact-length constraint (13), falling back to
the soft model if that turns out to be infeasible within its window.  The
failed hard-length attempt's build and solver seconds stay in the
iteration's runtime and profile entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import InfeasibleModelError
from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions, BuildResult, RficModelBuilder
from repro.core.result import PhaseResult
from repro.core.warm_start import solve_phase, solve_phase_model, warm_start_from_geometry
from repro.core.windows import chain_windows_from_positions, device_windows_from_layout
from repro.geometry.point import Point, midpoint
from repro.ilp.solution import Solution
from repro.layout.drc import DRCReport, run_drc
from repro.layout.layout import Layout

#: Escalation factor applied to the length / overlap penalty weights at every
#: refinement iteration.
_WEIGHT_ESCALATION = 3.0

#: Maximum number of devices granted rotation freedom per iteration (keeps the
#: per-iteration model growth bounded).
_MAX_ROTATABLE_PER_ITERATION = 8


@dataclass
class RefinementPlan:
    """What a single Phase-3 iteration changes relative to the current layout."""

    chain_positions: Dict[str, List[Point]]
    inserted_points: Dict[str, int]
    deleted_points: Dict[str, int]
    rotatable_devices: Set[str]
    use_exact_lengths: bool
    #: Net pairs whose centre lines were found crossing; their spacing
    #: exemption is revoked (softly) so the overlap penalty untangles them.
    forced_spacing_pairs: Set[frozenset] = field(default_factory=set)


def plan_refinement(
    netlist: Netlist,
    layout: Layout,
    config: PILPConfig,
    drc_report: Optional[DRCReport] = None,
    allow_exact: bool = False,
) -> RefinementPlan:
    """Decide deletions, insertions and rotation freedom for one iteration."""
    drc_report = drc_report if drc_report is not None else run_drc(layout)
    delta = netlist.technology.bend_compensation
    troubled_nets = _nets_with_drc_problems(drc_report)
    troubled_devices = _devices_with_drc_problems(drc_report)

    chain_positions: Dict[str, List[Point]] = {}
    inserted: Dict[str, int] = {}
    deleted: Dict[str, int] = {}

    for net in netlist.microstrips:
        route = layout.route(net.name)
        simplified = route.path.simplified()
        removed = len(route.path.points) - len(simplified.points)
        if removed > 0:
            deleted[net.name] = removed
        points = list(simplified.points)

        length_error = abs(simplified.equivalent_length(delta) - net.target_length)
        needs_detour = (
            length_error > config.length_tolerance or net.name in troubled_nets
        )
        room_left = config.max_chain_points - len(points)
        if needs_detour:
            # Guarantee enough corners for a detour: a fold needs at least
            # four segments, and problem nets get one extra corner to work with.
            to_insert = max(0, min(room_left, max(5 - len(points), 1)))
            for _ in range(to_insert):
                points = _insert_midpoint(points)
            if to_insert:
                inserted[net.name] = to_insert
        chain_positions[net.name] = points

    rotatable = _select_rotatable_devices(netlist, troubled_nets, troubled_devices)
    max_error = _max_length_error(netlist, layout)
    # The hard exact-length constraint (13) is attempted as soon as the
    # remaining error is plausibly fixable inside the refinement window:
    # every inserted detour can absorb roughly two window-widths of length.
    use_exact = allow_exact and max_error <= 2.0 * config.refinement_window
    return RefinementPlan(
        chain_positions=chain_positions,
        inserted_points=inserted,
        deleted_points=deleted,
        rotatable_devices=rotatable,
        use_exact_lengths=use_exact,
        forced_spacing_pairs=_crossing_net_pairs(drc_report),
    )


def run_phase3_iteration(
    netlist: Netlist,
    layout: Layout,
    config: PILPConfig,
    iteration: int,
    plan: RefinementPlan,
) -> PhaseResult:
    """Solve one refinement iteration of ``plan`` starting from ``layout``.

    An infeasible hard-length attempt falls back to the soft model, and the
    failed attempt's cost is folded into the result
    (:func:`~repro.core.warm_start.solve_phase`).
    """
    fallback = None
    if plan.use_exact_lengths:
        # The hard-length model can be infeasible inside the current windows.
        soft = replace(plan, use_exact_lengths=False)
        fallback = partial(_solve_iteration, netlist, layout, config, iteration, soft)
    return _solve_iteration(netlist, layout, config, iteration, plan, fallback)


def _solve_iteration(
    netlist: Netlist,
    layout: Layout,
    config: PILPConfig,
    iteration: int,
    plan: RefinementPlan,
    fallback: Optional[Callable[[], PhaseResult]] = None,
) -> PhaseResult:
    """Build and solve one iteration's model."""
    escalation = _WEIGHT_ESCALATION ** iteration
    weights = config.weights
    escalated = config.with_updates(
        weights=type(weights)(
            alpha=weights.alpha,
            beta=weights.beta,
            gamma=weights.gamma * escalation,
            zeta=weights.zeta * escalation,
            eta=weights.eta * escalation,
        )
    )

    # The refinement window is normally small (the topology is fixed), but a
    # net that still misses its length badly needs room for a deeper detour,
    # so the window grows with the remaining error up to the Phase-2 window.
    residual_error = _max_length_error(netlist, layout)
    tau = min(
        config.confinement_window,
        max(config.refinement_window, 0.75 * residual_error),
    )
    fixed_rotations = {
        placement.device_name: placement.rotation for placement in layout.placements
    }
    options = BuildOptions(
        blurred_devices=False,
        exact_lengths=plan.use_exact_lengths,
        chain_point_counts={
            name: len(points) for name, points in plan.chain_positions.items()
        },
        device_windows=device_windows_from_layout(layout, tau),
        chain_windows=chain_windows_from_positions(plan.chain_positions, tau),
        rotatable_devices=set(plan.rotatable_devices),
        fixed_rotations=fixed_rotations,
        forced_spacing_pairs=set(plan.forced_spacing_pairs),
    )
    builder = RficModelBuilder(
        netlist, escalated, options, name=f"phase3[{netlist.name}][{iteration}]"
    )

    def solve(build: BuildResult) -> Solution:
        # Seed from the current layout with the planned chain points (which
        # already reflect this iteration's deletions and insertions).
        warm_values = warm_start_from_geometry(
            build,
            {p.device_name: p.center for p in layout.placements},
            {name: list(points) for name, points in plan.chain_positions.items()},
            rotations=fixed_rotations,
        )
        return solve_phase_model(build, config.phase3, warm_values)

    return solve_phase(
        f"phase3[{iteration}]",
        builder.build,
        solve,
        {
            "flow": "p-ilp",
            "phase": f"phase3[{iteration}]",
            "exact_lengths": plan.use_exact_lengths,
            "inserted_chain_points": dict(plan.inserted_points),
            "deleted_chain_points": dict(plan.deleted_points),
            "rotatable_devices": sorted(plan.rotatable_devices),
        },
        fallback,
    )


def run_phase3(
    netlist: Netlist,
    phase2_layout: Layout,
    config: Optional[PILPConfig] = None,
    *,
    start_iteration: int = 0,
    initial_best: Optional[Layout] = None,
    on_iteration: Optional[
        Callable[[PhaseResult, Layout, Layout, int], None]
    ] = None,
) -> Tuple[List[PhaseResult], Layout]:
    """Iterate refinement until the layout is clean or the budget is spent.

    Returns the per-iteration results and the best layout seen (fewest DRC
    violations, ties broken by smaller max length error, then by fewer
    total bends; see :func:`_quality_key`).

    The keyword-only parameters support checkpoint resume: a resumed run
    passes the checkpointed geometry as ``phase2_layout``, the stored
    incumbent as ``initial_best``, and continues at ``start_iteration``.
    Because the loop state is exactly (current layout, incumbent,
    iteration index) — ``best_key`` is recomputed deterministically — the
    resumed iterations are identical to the ones a cold run would have
    executed.  ``on_iteration(result, current, best, next_iteration)`` is
    invoked after each completed iteration so callers can persist that
    state.
    """
    config = config or PILPConfig()
    current = phase2_layout
    results: List[PhaseResult] = []
    # One design-rule check per layout: its report ranks the layout and
    # plans the iteration that starts from it.
    report = run_drc(current)
    current_key = _quality_key(netlist, current, report)
    if initial_best is None:
        best_layout, best_key = current, current_key
    else:
        best_layout = initial_best
        best_key = _quality_key(netlist, best_layout, run_drc(best_layout))

    if start_iteration > 0:
        # Re-evaluate the stop conditions the checkpointed run faced at the
        # end of its last iteration: a run that stopped because it was DRC
        # clean must not burn an extra iteration after resume.
        if current_key[0] == 0 or start_iteration >= config.max_refinement_iterations:
            return results, best_layout

    for iteration in range(start_iteration, config.max_refinement_iterations):
        plan = plan_refinement(
            netlist, current, config, drc_report=report, allow_exact=True
        )
        try:
            result = run_phase3_iteration(netlist, current, config, iteration, plan)
        except InfeasibleModelError:
            # Refinement is best-effort: an iteration whose solver budget
            # expires without any incumbent must not discard the complete
            # layout the earlier phases already produced.
            break
        results.append(result)
        current = result.layout
        report = run_drc(current)
        key = _quality_key(netlist, current, report)
        if key < best_key:
            best_key = key
            best_layout = current
        if on_iteration is not None:
            on_iteration(result, current, best_layout, iteration + 1)
        if key[0] == 0:
            # DRC clean: lengths exact, no overlaps, planar — we are done.
            break
    return results, best_layout


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


def _insert_midpoint(points: List[Point]) -> List[Point]:
    """Insert a chain point in the middle of the longest segment."""
    if len(points) < 2:
        return points
    longest_index = 0
    longest_length = -1.0
    for index, (a, b) in enumerate(zip(points, points[1:])):
        length = a.manhattan_distance(b)
        if length > longest_length:
            longest_length = length
            longest_index = index
    a, b = points[longest_index], points[longest_index + 1]
    inserted = midpoint(a, b)
    return points[: longest_index + 1] + [inserted] + points[longest_index + 1 :]


def _nets_with_drc_problems(report: DRCReport) -> Set[str]:
    """Names of nets implicated in any remaining violation."""
    nets: Set[str] = set()
    for violation in report.violations:
        for label in (violation.subject, violation.other):
            if label.startswith("net:"):
                nets.add(label[len("net:"):].split("[", 1)[0])
            elif label and not label.startswith("dev:") and ":" not in label:
                # length-mismatch / open-connection violations carry the bare
                # net name as their subject.
                nets.add(label)
    return nets


def _crossing_net_pairs(report: DRCReport) -> Set[frozenset]:
    """Pairs of net names whose centre lines cross in the current layout."""
    from repro.layout.drc import ViolationKind

    pairs: Set[frozenset] = set()
    for violation in report.violations:
        if violation.kind is ViolationKind.CROSSING and violation.other:
            pairs.add(frozenset((violation.subject, violation.other)))
    return pairs


def _devices_with_drc_problems(report: DRCReport) -> Set[str]:
    devices: Set[str] = set()
    for violation in report.violations:
        for label in (violation.subject, violation.other):
            if label.startswith("dev:"):
                devices.add(label[len("dev:"):])
    return devices


def _select_rotatable_devices(
    netlist: Netlist, troubled_nets: Set[str], troubled_devices: Set[str]
) -> Set[str]:
    """Devices granted rotation freedom this iteration."""
    candidates: Set[str] = set()
    for name in troubled_devices:
        if netlist.has_device(name) and netlist.device(name).rotatable:
            candidates.add(name)
    for net_name in troubled_nets:
        if net_name not in netlist.microstrip_names:
            continue
        net = netlist.microstrip(net_name)
        for terminal in net.terminals:
            device = netlist.device(terminal.device)
            if device.rotatable and not device.is_pad:
                candidates.add(device.name)
    return set(sorted(candidates)[:_MAX_ROTATABLE_PER_ITERATION])


def _max_length_error(netlist: Netlist, layout: Layout) -> float:
    delta = netlist.technology.bend_compensation
    errors = []
    for net in netlist.microstrips:
        if layout.has_route(net.name):
            errors.append(abs(layout.route(net.name).length_error(net, delta)))
    return max(errors) if errors else 0.0


def _quality_key(
    netlist: Netlist, layout: Layout, report: DRCReport
) -> Tuple[int, float, int]:
    """Ordering key: fewer DRC violations, smaller length error, fewer bends.

    ``report`` is ``layout``'s design-rule report.
    """
    total_bends = sum(route.bend_count for route in layout.routes)
    return (report.count(), round(_max_length_error(netlist, layout), 3), total_bends)
