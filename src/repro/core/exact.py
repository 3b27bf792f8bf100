"""Exact concurrent placement and routing (Section 4).

This flow solves the *complete* ILP model — hard exact-length constraints,
full device geometry, hard non-overlap — to its MIP gap.  The paper
introduces this model first and then observes that "the runtime is not
acceptable" for realistic circuits, which motivates the progressive flow of
Section 5.  We keep the exact flow because

* it is the ground truth for small circuits (the progressive flow should
  reach the same bend counts),
* it is the baseline of the exact-vs-progressive ablation benchmark.

The model adds one thing to the paper's: the AND lower bounds of the bend
indicators (:meth:`RficModelBuilder.add_bend_and_rows`), two rows per
interior chain point.  Rows (8)-(10) alone let the LP relaxation put
``t_hv`` at 0 at a turn, so the solver spent most of its time in the tree.
The added rows are valid (every integer point of (8)-(10) satisfies them),
so the optimum does not change.  On the tiny two-net circuit under
``PILPConfig.fast()`` the solve to the gap went from 1,007 nodes and 7.6 s
to 186 nodes and 1.6 s (2-core VM, HiGHS 1.12.0), same objective.

The P-ILP phases build their models without these rows.  Their Phase-3
searches stop on a stall window, not on the gap, and the rows change their
search path: appended to every P-ILP model, they left reduced buffer60 with
5 bends instead of 3 in 3 of 3 runs.  The exact flow runs to its gap, so it
is the one search where the tighter LP helps.

Most of that solve went into proving that no layout has fewer bends, which
small models prove cheaply.  So the flow deepens a bend budget instead of
searching the full model cold.  ``R_k`` is the same model with at most
``k + 2`` chain points per net, solved for ``k = 0, 1, ...``:

1. ``R_k`` relaxes the full model restricted to at most ``k`` bends per net.
   Split a full solution's segments into ``k + 1`` runs of one direction at
   every counted direction change (and, with fewer bends, at further chain
   points).  Each run is collinear and contiguous and each of its boxes is
   separated from every block it is not exempt from, so their hull is too.
   ``R_k``'s end segments contain the full model's, so its exemptions only
   get wider; bends, length and the equivalent-length row are unchanged.
   An infeasible ``R_k`` therefore proves that some net needs ``k + 1``
   bends, and every later model gets the floor rows of
   :func:`add_bend_floor`.
2. A full solution in which some net has at least ``k + 1`` bends costs at
   least ``(alpha + beta)(k + 1)``.

Once ``R_{f-1}`` is infeasible (floor ``f >= 1``), the cheapest layouts
left bend one net ``f`` times and keep every other net straight.  So before
``R_f`` the flow solves, for each net ``i`` in netlist order, the single-net
level ``S_{f,i}``: net ``i`` gets ``min(f + 2, count)`` chain points, every
other net 2, and the floor rows hold.  Every solution of ``S_{f,i}`` has
``max_bends <= f`` and at most ``f`` bends in total, so its objective is at
most ``(alpha + beta) f``; the floor rows make that a lower bound on every
full solution, so an optimum of ``S_{f,i}`` that lifts is the full
optimum.  The floor is HiGHS's root bound, so it stops at its first
incumbent.  When every ``S_{f,i}`` is infeasible, ``R_f`` follows as before,
or the full model when ``R_f`` would be it (a one-net circuit's single-net
level is ``R_f`` and is solved once); :func:`bend_budget_levels` gives the
order.

The first feasible level ends the deepening.  If it is optimal, its
objective is at most its bound (``(alpha + beta)(k + 1)`` for ``R_k``,
``(alpha + beta) f`` for ``S_{f,i}``) and it lifts into the full model, the
lift is the full model's optimum within the level's gap.  The lift pads
each route to the full chain count by repeating interior chain points
(:func:`pad_chain`), warm starts the full model from that geometry and
completes it by LP (:meth:`~repro.ilp.backends.highs.HighsBackend.repair`).
Otherwise the full model, with the floor rows, is searched to the gap from
the lift (cold when there is none) in what is left of the time limit.  The
last level is the full model, so there is one path.

On the tiny circuit under ``PILPConfig.fast()``, ``R_0`` is infeasible in
about 0.04 s and ``S_{1,ms_in}`` is optimal at 24 in about 0.06 s at its
root; the lift and its repair take 0.005 s.  The flow takes about 0.1 s.
``R_1``, which certified it before the single-net levels, took 0.3-0.4 s to
find its first incumbent (3,754 cuts and a sub-MIP) with the floor as its
root bound, and the cold full search takes 1.2-1.5 s and 186 nodes.  A
single-net level certifies the five-net circuit in 0.9 s (12 s through
``R_1``) and reduced buffer60 and lna60 in 2.8 and 3.1 s (82-89 and 54 s);
2-core VM, HiGHS 1.12.0.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions, BuildResult, RficModelBuilder
from repro.core.result import FlowResult
from repro.core.warm_start import solve_phase, warm_start_from_geometry
from repro.geometry.point import Point, midpoint
from repro.ilp.backends.highs import HighsBackend
from repro.ilp.expr import LinExpr, Variable
from repro.ilp.solution import Solution, SolveStatus
from repro.layout.drc import run_drc
from repro.layout.metrics import compute_metrics

#: Objective slack within which a lift counts as keeping the relaxation's
#: objective.
_OBJECTIVE_TOL = 1.0e-6


def build_exact_model(
    netlist: Netlist,
    config: PILPConfig,
    chain_points: Optional[Mapping[str, int]] = None,
    net: Optional[str] = None,
) -> BuildResult:
    """The model the exact flow solves: Section 4's rows plus the AND rows.

    ``chain_points`` sets the chain-point count of each net, which builds
    one of the flow's bend-budget relaxations; ``None`` builds the full
    model.  ``net`` names the one net of a single-net level, the only net
    whose route may bend.
    """
    name = f"exact[{netlist.name}]"
    if net is not None:
        name += f"[{net}: {chain_points[net]} chain points]"
    elif chain_points is not None:
        name += f"[{max(chain_points.values())} chain points]"
    options = BuildOptions(chain_point_counts=dict(chain_points or {}))
    builder = RficModelBuilder(netlist, config, options, name=name)
    build = builder.build()
    builder.add_bend_and_rows()
    return build


def add_bend_floor(build: BuildResult, floor: int) -> None:
    """Append the rows of a proven bend floor, if it is positive.

    ``floor`` says that some net has at least ``floor`` bends, so both the
    largest and the total bend count reach it: ``obj.max_bends >= floor``
    (``obj.bend_floor``) and ``sum of bends >= floor``
    (``obj.bend_floor_total``).  The second row lifts the LP bound from
    ``alpha * floor`` to ``(alpha + beta) * floor``.
    """
    if floor > 0:
        model = build.model
        model.add_constraint(build.max_bend_var >= floor, name="obj.bend_floor")
        total = LinExpr.sum(net_vars.bend_count for net_vars in build.nets.values())
        model.add_constraint(total >= floor, name="obj.bend_floor_total")


def pad_chain(points: Sequence[Point], count: int) -> List[Point]:
    """A route's chain points padded to ``count`` by repeating interior points.

    Each repeat adds a zero-length segment, which the warm start gives its
    predecessor's direction, so the bends and the length do not change.  A
    straight two-point route is first split at its midpoint.
    """
    points = list(points)
    if len(points) == count:
        return points
    if len(points) == 2:
        points.insert(1, midpoint(points[0], points[1]))
    extra = count - len(points)
    if extra < 0:
        raise ValueError(f"cannot pad {len(points)} chain points to {count}")
    interior = points[1:-1]
    padded = [points[0]]
    for index, point in enumerate(interior):
        repeats = 1 + extra // len(interior) + (index < extra % len(interior))
        padded.extend([point] * repeats)
    padded.append(points[-1])
    return padded


def bend_budget_levels(
    counts: Mapping[str, int],
) -> Iterator[Tuple[Optional[str], Dict[str, int], int]]:
    """The relaxations of the bend-budget deepening, in solve order.

    ``counts`` holds the full model's chain-point count of each net.  Each
    level is ``(net, chain points, bends)``: ``net`` is ``None`` for the
    uniform level ``R_k``, whose infeasibility proves the floor ``bends =
    k + 1``, and names the bent net of a single-net level ``S_{f,i}``, which
    follows a proven floor ``bends = f``.  Either level certifies an optimum
    of at most ``(alpha + beta) * bends``.  Single-net levels whose budget
    equals the next uniform level's are skipped.  The levels end before the
    uniform level whose budget is the full model's; its single-net levels
    still come first.
    """
    for k in itertools.count():
        uniform = {name: min(k + 2, count) for name, count in counts.items()}
        if k > 0:
            for net, count in counts.items():
                single = dict.fromkeys(counts, 2)
                single[net] = min(k + 2, count)
                if single != uniform:
                    yield net, single, k
        if uniform == counts:
            return
        yield None, uniform, k + 1


class BendBudgetDeepening:
    """The exact flow's solve of the full model: deepen a bend budget first.

    Calling it with the full model's build returns the full model's
    solution (see the module docstring).  Its ``solve_time`` covers every
    HiGHS run, the repair LP included, and ``iterations`` sums the nodes of
    every level.  Afterwards ``bend_floor`` holds the proven floor,
    ``certified_by_chain_points`` the chain-point map of the relaxation
    whose optimum was lifted, or ``None`` when the full model was searched,
    and ``levels`` one row per relaxation or full-model solve, in solve
    order: its chain-point map, status, nodes and ``solve_s``.
    """

    def __init__(self, netlist: Netlist, config: PILPConfig) -> None:
        self.netlist = netlist
        self.config = config
        self.bend_floor = 0
        self.certified_by_chain_points: Optional[Dict[str, int]] = None
        self.levels: List[Dict[str, object]] = []
        self._runs: List[Solution] = []

    def __call__(self, full: BuildResult) -> Solution:
        settings = self.config.exact
        deadline = None
        if settings.time_limit is not None:
            deadline = time.perf_counter() + settings.time_limit

        def remaining() -> Optional[float]:
            return None if deadline is None else max(0.0, deadline - time.perf_counter())

        counts = {name: len(net_vars.xs) for name, net_vars in full.nets.items()}
        level = None
        for net, budget, bends in bend_budget_levels(counts):
            if remaining() == 0.0:
                break
            relaxation = build_exact_model(self.netlist, self.config, budget, net)
            add_bend_floor(relaxation, self.bend_floor)
            solution = self._run(
                relaxation.model.solve(time_limit=remaining(), mip_gap=settings.mip_gap),
                budget,
            )
            if solution.status is SolveStatus.INFEASIBLE:
                if net is None:
                    self.bend_floor = bends
                continue
            if solution.is_feasible:
                level = (budget, bends, relaxation, solution)
            break

        add_bend_floor(full, self.bend_floor)
        warm_start = None
        if level is not None:
            budget, bends, relaxation, solution = level
            warm_start = _lift(full, relaxation, solution)
            repaired = HighsBackend().repair(full.model, warm_start)
            if repaired is not None:
                self._run(repaired)
                weights = self.config.weights
                bound = (weights.alpha + weights.beta) * bends
                if (
                    solution.is_optimal
                    and solution.objective <= bound
                    and repaired.objective <= solution.objective + _OBJECTIVE_TOL
                ):
                    self.certified_by_chain_points = budget
                    return self._total(
                        replace(repaired, status=SolveStatus.OPTIMAL, gap=solution.gap),
                        f"certified by {relaxation.model.name}: its optimum "
                        f"{solution.objective:g} is at most (alpha+beta)*{bends} = "
                        f"{bound:g} and lifts into the full model; bend floor "
                        f"{self.bend_floor}",
                    )
                warm_start = repaired.values
        solution = self._run(
            full.model.solve(
                time_limit=remaining(), mip_gap=settings.mip_gap, warm_start=warm_start
            ),
            counts,
        )
        return self._total(
            solution, f"full model searched; bend floor {self.bend_floor}; {solution.message}"
        )

    def _run(
        self, solution: Solution, chain_points: Optional[Mapping[str, int]] = None
    ) -> Solution:
        """Count ``solution``'s run; ``chain_points`` makes it a level (not the repair)."""
        self._runs.append(solution)
        if chain_points is not None:
            self.levels.append(
                {
                    "chain_points": dict(chain_points),
                    "status": solution.status.value,
                    "nodes": solution.iterations,
                    "solve_s": round(solution.solve_time, 6),
                }
            )
        return solution

    def _total(self, solution: Solution, message: str) -> Solution:
        """``solution`` with the time and nodes of every run and ``message``."""
        return replace(
            solution,
            solve_time=sum(run.solve_time for run in self._runs),
            iterations=sum(run.iterations or 0 for run in self._runs),
            message=message,
        )


def _lift(
    full: BuildResult, relaxation: BuildResult, solution: Solution
) -> Dict[Variable, float]:
    """Warm start of the full model from a relaxation's solution geometry."""
    layout = relaxation.extract_layout(solution)
    chains = {
        route.net_name: pad_chain(route.path.points, len(full.nets[route.net_name].xs))
        for route in layout.routes
    }
    return warm_start_from_geometry(
        full,
        {placement.device_name: placement.center for placement in layout.placements},
        chains,
        {placement.device_name: placement.rotation for placement in layout.placements},
    )


class ExactLayoutGenerator:
    """Generate a layout by solving the full Section-4 model to its gap."""

    flow_name = "exact-ilp"

    def __init__(self, config: Optional[PILPConfig] = None) -> None:
        self.config = config or PILPConfig()

    def generate(self, netlist: Netlist) -> FlowResult:
        """Run the exact flow on a netlist.

        Raises
        ------
        InfeasibleModelError
            If the solver proves the instance infeasible or finds no feasible
            solution within the configured time limit.
        """
        start = time.perf_counter()
        deepening = BendBudgetDeepening(netlist, self.config)
        phase = solve_phase(
            "exact",
            lambda: build_exact_model(netlist, self.config),
            deepening,
            {"flow": self.flow_name},
        )
        layout = phase.layout
        layout.metadata["solver_backend"] = phase.solution.backend
        layout.metadata["bend_floor"] = deepening.bend_floor
        layout.metadata["certified_by_chain_points"] = deepening.certified_by_chain_points
        phase.levels = deepening.levels
        metrics_started = time.perf_counter()
        metrics = compute_metrics(layout)
        drc_started = time.perf_counter()
        drc = run_drc(layout)
        drc_done = time.perf_counter()
        timings = {
            "metrics_s": drc_started - metrics_started,
            "drc_s": drc_done - drc_started,
        }
        runtime = drc_done - start
        layout.metadata["runtime_s"] = runtime
        return FlowResult(
            flow=self.flow_name,
            circuit=netlist.name,
            layout=layout,
            metrics=metrics,
            drc=drc,
            runtime=runtime,
            phases=[phase],
            timings=timings,
        )
