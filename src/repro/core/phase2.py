"""Phase 2 — device visualisation and overlap fixing (Section 5.2).

The blurred devices of Phase 1 are given their real geometry back: device
centres start from the Phase-1 points, microstrip ends snap from the device
point to the actual pin (equation (14) re-enters the model), the reservation
margin around segments is dropped, and device outlines join the non-overlap
constraints.  To keep the model tractable the routing topology found in
Phase 1 is preserved: every chain point and every device centre may move at
most τ_d away from its Phase-1 location, which both bounds the search space
and lets the builder prune non-overlap pairs whose windows can never meet.

Length matching and overlap removal are still handled through the soft
objective (26); Phase 3 iterates until both are exact.  When the real
outlines cannot be legalised within τ_d, Phase 2 retries once in a doubled
window; the failed attempt's build and solver seconds stay in the phase's
runtime and profile entry.

Deviation from the paper: Phase 2 does not search the ILP.  It completes
its warm start by LP — every integer column pinned to the legalised Phase-1
geometry, the rest solved once
(:meth:`~repro.ilp.backends.highs.HighsBackend.repair`) — and hands that
repaired layout to Phase 3, as Phase 1 keeps its repaired seed.  The
paper's warm-started search is the flow's fallback:
:class:`~repro.core.pilp.PILPLayoutGenerator` runs it (``search=True``) only
when the layout Phase 3 refined from the repair fails DRC.  Measured at the
benchmark budgets, the search found nothing Phase 3 needed on the service's
tiny job and on reduced lna94, buffer60 and lna60: the repairs of the
first two were already DRC-clean, and on the last two the search returned
a layout identical to the repair after a 1.25 s stall window, because
their crossing is one Phase 3 removes and the Phase-2 model cannot.  That
crossing came from the Phase-1 seed; with each net's L orientation chosen
(:func:`~repro.core.seed.choose_l_orientations`) their repairs have none.  On
the five-net test circuit the search is what makes the flow DRC-clean
(overlap 295 → 0), and there the fallback runs.  The search also runs
when the pinned LP has no optimum.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions, BuildResult, RficModelBuilder
from repro.core.result import PhaseResult
from repro.core.seed import relax_seed_overlaps
from repro.core.warm_start import solve_phase, solve_phase_model, warm_start_from_geometry
from repro.core.windows import (
    chain_point_counts,
    chain_positions_from_layout,
    window_around,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.ilp.solution import Solution
from repro.layout.layout import Layout


def run_phase2(
    netlist: Netlist,
    phase1_layout: Layout,
    config: Optional[PILPConfig] = None,
    *,
    search: bool = False,
) -> PhaseResult:
    """Run Phase 2 starting from a Phase-1 layout snapshot.

    Phase 2 returns the LP repair of its warm start
    (``solution.repaired``); ``search=True`` runs the warm-started MIP
    search instead, the flow's fallback.

    Phase 1 places device points optimistically; occasionally the real
    device outlines cannot all be legalised within τ_d of those points.  The
    paper handles this by making τ_d "large enough"; Phase 2 retries once
    with a doubled window, and the failed attempt's cost is folded into the
    result (:func:`~repro.core.warm_start.solve_phase`).

    Raises
    ------
    InfeasibleModelError
        If no feasible solution exists even within the widened window.
    """
    config = config or PILPConfig()
    widened = config.with_updates(confinement_window=2.0 * config.confinement_window)
    return _solve(
        netlist,
        phase1_layout,
        config,
        search,
        fallback=lambda: _solve(netlist, phase1_layout, widened, search),
    )


def _solve(
    netlist: Netlist,
    phase1_layout: Layout,
    config: PILPConfig,
    search: bool,
    fallback: Optional[Callable[[], PhaseResult]] = None,
) -> PhaseResult:
    """Build and solve Phase 2 within ``config.confinement_window``."""
    tau = config.confinement_window
    positions = chain_positions_from_layout(phase1_layout)
    device_windows, chain_windows, relaxed_points = _phase2_windows(
        netlist, phase1_layout, positions, tau
    )
    options = BuildOptions(
        blurred_devices=False,
        exact_lengths=False,
        chain_point_counts=chain_point_counts(positions),
        device_windows=device_windows,
        chain_windows=chain_windows,
    )
    builder = RficModelBuilder(netlist, config, options, name=f"phase2[{netlist.name}]")

    def solve(build: BuildResult) -> Solution:
        # Seed from the legalised Phase-1 geometry: device points pushed
        # apart until their real outlines clear, chain points as routed.
        warm_values = warm_start_from_geometry(
            build,
            relaxed_points,
            {name: list(points) for name, points in positions.items()},
        )
        return solve_phase_model(build, config.phase2, warm_values, repair=not search)

    return solve_phase(
        "phase2",
        builder.build,
        solve,
        {"flow": "p-ilp", "phase": "phase2", "confinement_window_um": tau},
        fallback,
    )


def _phase2_windows(
    netlist: Netlist,
    phase1_layout: Layout,
    positions: Dict[str, list],
    tau: float,
) -> Tuple[Dict[str, Rect], Dict[Tuple[str, int], Rect], Dict[str, Point]]:
    """Confinement windows for Phase 2, centred on legalised device points.

    Phase 1 treats devices as points, so several of them routinely end up
    closer together than their real outlines allow.  Before the windows are
    drawn the device points are therefore pushed apart until their outlines
    clear each other (the same relaxation used for the seed placement); the
    τ_d windows around these legalised centres are then guaranteed to contain
    an overlap-free arrangement, which is exactly what Phase 2 is asked to
    find.  Chain-point windows grow by however far "their" devices moved so
    the Phase-1 routing topology stays reachable.
    """
    phase1_points = {
        placement.device_name: placement.center
        for placement in phase1_layout.placements
    }
    relaxed = relax_seed_overlaps(phase1_points, netlist)

    device_windows: Dict[str, Rect] = {}
    shift_by_device: Dict[str, float] = {}
    for name, original in phase1_points.items():
        moved = relaxed[name]
        shift_by_device[name] = original.euclidean_distance(moved)
        device_windows[name] = window_around(moved, tau)

    chain_windows: Dict[Tuple[str, int], Rect] = {}
    for net_name, points in positions.items():
        net = netlist.microstrip(net_name)
        slack = max(
            shift_by_device.get(net.start.device, 0.0),
            shift_by_device.get(net.end.device, 0.0),
        )
        for index, point in enumerate(points):
            chain_windows[(net_name, index)] = window_around(
                Point(point.x, point.y), tau + slack
            )
    return device_windows, chain_windows, relaxed
