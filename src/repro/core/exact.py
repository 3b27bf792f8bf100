"""One-shot exact concurrent placement and routing (Section 4).

This flow builds the *complete* ILP model — hard exact-length constraints,
full device geometry, hard non-overlap — and hands it to the MILP solver in a
single call.  The paper introduces this model first and then observes that
"the runtime is not acceptable" for realistic circuits, which motivates the
progressive flow of Section 5.  We keep the exact flow because

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
"""

from __future__ import annotations

import time
from typing import Optional

from repro.circuit.netlist import Netlist
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions, BuildResult, RficModelBuilder
from repro.core.result import FlowResult
from repro.core.warm_start import solve_phase
from repro.layout.drc import run_drc
from repro.layout.metrics import compute_metrics


def build_exact_model(netlist: Netlist, config: PILPConfig) -> BuildResult:
    """The model the exact flow solves: Section 4's rows plus the AND rows."""
    builder = RficModelBuilder(netlist, config, BuildOptions(), name=f"exact[{netlist.name}]")
    build = builder.build()
    builder.add_bend_and_rows()
    return build


class ExactLayoutGenerator:
    """Generate a layout by solving the full Section-4 model once."""

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
        settings = self.config.exact
        phase = solve_phase(
            "exact",
            lambda: build_exact_model(netlist, self.config),
            lambda build: build.model.solve(
                time_limit=settings.time_limit, mip_gap=settings.mip_gap
            ),
            {"flow": self.flow_name},
        )
        layout = phase.layout
        layout.metadata["solver_backend"] = phase.solution.backend
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


def generate_exact_layout(
    netlist: Netlist, config: Optional[PILPConfig] = None
) -> FlowResult:
    """Convenience function wrapping :class:`ExactLayoutGenerator`."""
    return ExactLayoutGenerator(config).generate(netlist)
