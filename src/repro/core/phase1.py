"""Phase 1 — planar microstrip routing with blurred devices (Section 5.1).

Devices are removed from the model: each becomes a dimensionless point to
which its microstrips attach directly.  To make room for the devices that
will reappear in Phase 2, every segment's bounding box is expanded by an
extra reservation margin (Figure 8), and every net's length target is grown
by the centre-to-boundary runs that the blurred devices swallow
(equation (23)).  Exact length matching and strict non-overlap are both
relaxed: unmatched length and residual overlap are penalised in the
objective (equation (26)) instead of being enforced, which keeps this first,
globally-unconstrained model solvable.

Deviation from the paper: Phase 1 does not search the ILP.  It keeps the
discrete choices of the L-shaped routes through the force-directed seed
placement, each turning the way :func:`~repro.core.seed.choose_l_orientations`
chose so that as few net pairs cross as its search finds (none on the
reduced benchmark circuits), pins every integer column to them and solves
the remaining LP once (:meth:`~repro.ilp.backends.highs.HighsBackend.repair`).
Measured at the benchmark budgets, the search never beat that repaired seed:
on reduced lna94, buffer60 and lna60 the repaired seed (found after 0.02 s)
was the only incumbent, and each run then spent a 1.25 s stall window on
root separation (on lna94: 9,550 cuts, 0 nodes, dual bound 0); a 60 s HiGHS
run on reduced buffer60 and lna94 found nothing better either.  On the
service's tiny job a sub-MIP lowered the Phase-1 objective from 28 to 0, yet
the final layout has one bend and is DRC-clean either way.  The paper's
search, warm-started from the seed, still runs when the pinned LP has no
optimum.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions, BuildResult, RficModelBuilder
from repro.core.result import PhaseResult
from repro.core.seed import seed_placement, spread_boundary_pads
from repro.core.warm_start import solve_phase, solve_phase_model, warm_start_from_seeds
from repro.core.windows import mean_device_extent, window_around
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.ilp.solution import Solution


def run_phase1(
    netlist: Netlist,
    config: Optional[PILPConfig] = None,
) -> PhaseResult:
    """Run Phase 1 and return its result (layout snapshot + diagnostics).

    The returned layout places every device at its blurred point location
    (orientation R0) and routes every microstrip through the configured
    number of chain points.  Residual overlap and length mismatch are
    expected at this stage; Phases 2 and 3 remove them.

    Raises
    ------
    InfeasibleModelError
        If the solver cannot find any feasible Phase-1 solution (this only
        happens when the area is far too small for the netlist).
    """
    config = config or PILPConfig()
    # The force-directed seed placement feeds both the windows and the warm
    # start; compute it once.
    seeds = phase1_seeds(netlist, config)

    def solve(build: BuildResult) -> Solution:
        warm_values = warm_start_from_seeds(build, seeds)
        return solve_phase_model(build, config.phase1, warm_values, repair=True)

    return solve_phase(
        "phase1",
        lambda: build_phase1_model(netlist, config, seeds),
        solve,
        {
            "flow": "p-ilp",
            "phase": "phase1",
            "reservation_margin_um": _reservation_margin(netlist, config),
        },
    )


def phase1_seeds(netlist: Netlist, config: PILPConfig) -> Dict[str, Point]:
    """The force-directed seed placement, pads spread onto the boundary."""
    return spread_boundary_pads(seed_placement(netlist, config.random_seed), netlist)


def build_phase1_model(
    netlist: Netlist, config: PILPConfig, seeds: Optional[Dict[str, Point]] = None
) -> BuildResult:
    """Build the Phase-1 model; ``seeds`` shares a computed seed placement."""
    device_windows, chain_windows = _phase1_windows(netlist, config, seeds)
    options = BuildOptions(
        blurred_devices=True,
        exact_lengths=False,
        extra_segment_margin=_reservation_margin(netlist, config),
        chain_point_counts={
            net.name: config.chain_points_per_microstrip for net in netlist.microstrips
        },
        device_windows=device_windows,
        chain_windows=chain_windows,
    )
    return RficModelBuilder(netlist, config, options, name=f"phase1[{netlist.name}]").build()


def _reservation_margin(netlist: Netlist, config: PILPConfig) -> float:
    """The segment-box expansion that reserves room for blurred devices."""
    return config.blur_margin_factor * mean_device_extent(netlist)


def _phase1_windows(
    netlist: Netlist, config: PILPConfig, seeds: Optional[Dict] = None
) -> Tuple[Dict[str, Rect], Dict[Tuple[str, int], Rect]]:
    """Confinement corridors for the Phase-1 model.

    Every device is confined to a ``phase1_window`` box around its seed
    position, and every chain point of a net to the bounding corridor
    spanned by its two terminal seeds (so detours remain possible anywhere
    between the terminals).  The paper's Phase 1 runs over the whole layout
    area; this model never does.  ``seeds`` lets the caller share an
    already-computed seed placement.
    """
    tau = config.phase1_window
    if seeds is None:
        seeds = phase1_seeds(netlist, config)

    device_windows: Dict[str, Rect] = {
        name: window_around(point, tau) for name, point in seeds.items()
    }
    chain_windows: Dict[Tuple[str, int], Rect] = {}
    for net in netlist.microstrips:
        start_seed = seeds[net.start.device]
        end_seed = seeds[net.end.device]
        corridor = Rect.bounding(
            [window_around(start_seed, tau), window_around(end_seed, tau)]
        )
        count = config.chain_points_per_microstrip
        for index in range(count):
            chain_windows[(net.name, index)] = corridor
    return device_windows, chain_windows
