"""The paper's core contribution: concurrent placement + fixed-length routing.

``ExactLayoutGenerator`` solves the complete Section-4 ILP to its gap, by
bend-budget deepening over relaxations with few chain points;
``PILPLayoutGenerator`` runs the three-phase progressive flow of Section 5.
Both return a :class:`~repro.core.result.FlowResult` containing the final
layout, its metrics, a DRC report and per-phase diagnostics.
"""

from repro.core.config import ObjectiveWeights, PhaseSettings, PILPConfig
from repro.core.model_builder import (
    BuildOptions,
    BuildResult,
    DeviceVars,
    NetVars,
    RficModelBuilder,
    SegmentVars,
)
from repro.core.result import FlowResult, PhaseResult
from repro.core.exact import ExactLayoutGenerator
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_phase2
from repro.core.phase3 import (
    RefinementPlan,
    plan_refinement,
    run_phase3,
    run_phase3_iteration,
)
from repro.core.pilp import PILPLayoutGenerator
from repro.core.warm_start import (
    warm_start_from_geometry,
    warm_start_from_seeds,
)
from repro.core.windows import (
    chain_point_counts,
    chain_positions_from_layout,
    chain_windows_from_positions,
    device_windows_from_layout,
    mean_device_extent,
    window_around,
)

__all__ = [
    "PILPConfig",
    "ObjectiveWeights",
    "PhaseSettings",
    "RficModelBuilder",
    "BuildOptions",
    "BuildResult",
    "DeviceVars",
    "NetVars",
    "SegmentVars",
    "FlowResult",
    "PhaseResult",
    "ExactLayoutGenerator",
    "PILPLayoutGenerator",
    "run_phase1",
    "run_phase2",
    "run_phase3",
    "run_phase3_iteration",
    "plan_refinement",
    "RefinementPlan",
    "warm_start_from_geometry",
    "warm_start_from_seeds",
    "window_around",
    "device_windows_from_layout",
    "chain_positions_from_layout",
    "chain_windows_from_positions",
    "chain_point_counts",
    "mean_device_extent",
]
