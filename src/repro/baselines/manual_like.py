"""The combined manual-like baseline flow: place first, then route.

This flow stands in for the paper's hand-crafted layouts in Table 1 and
Figure 11.  It follows the conventional methodology the paper contrasts
itself against: a floorplan is produced first (simulated annealing over the
device outlines), and the microstrips are then routed one by one, matching
their required lengths with serpentine detours.  Because placement never
sees the routing requirements, length matching costs many more bends than
the concurrent P-ILP formulation — which is precisely the qualitative gap
Table 1 reports.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.circuit.netlist import Netlist
from repro.core.result import FlowResult
from repro.baselines.annealing import AnnealingConfig, AnnealingPlacer
from repro.baselines.greedy_router import GreedyRouter, GreedyRouterConfig
from repro.layout.drc import run_drc
from repro.layout.metrics import compute_metrics


class ManualLikeFlow:
    """Sequential place-then-route baseline ("Manual" column of Table 1)."""

    flow_name = "manual-like"

    def __init__(
        self,
        placer_config: Optional[AnnealingConfig] = None,
        router_config: Optional[GreedyRouterConfig] = None,
    ) -> None:
        self.placer = AnnealingPlacer(placer_config)
        self.router = GreedyRouter(router_config)

    def generate(self, netlist: Netlist) -> FlowResult:
        """Run the baseline flow and return its result."""
        start = time.perf_counter()
        placed = self.placer.place_layout(netlist)
        routed = self.router.route_layout(placed)
        runtime = time.perf_counter() - start
        routed.metadata.update(
            {
                "flow": self.flow_name,
                "circuit": netlist.name,
                "runtime_s": runtime,
            }
        )
        return FlowResult(
            flow=self.flow_name,
            circuit=netlist.name,
            layout=routed,
            metrics=compute_metrics(routed),
            drc=run_drc(routed),
            runtime=runtime,
            phases=[],
        )
