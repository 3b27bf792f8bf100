"""Layout model: placements, routed microstrips, DRC, metrics and export."""

from repro.layout.placement import Placement
from repro.layout.routing import RoutedMicrostrip
from repro.layout.layout import Layout
from repro.layout.drc import (
    DesignRuleChecker,
    DRCReport,
    DRCViolation,
    ViolationKind,
    run_drc,
)
from repro.layout.metrics import (
    LayoutMetrics,
    NetMetrics,
    compare_metrics,
    compute_metrics,
)
from repro.layout.smoothing import (
    SmoothedRoute,
    default_cut_length,
    smooth_layout,
    smooth_route,
)
from repro.layout.export_svg import layout_to_svg, save_phase_snapshots, save_svg
from repro.layout.export_json import (
    layout_from_dict,
    layout_to_dict,
    load_layout,
    save_layout,
)

__all__ = [
    "Placement",
    "RoutedMicrostrip",
    "Layout",
    "DesignRuleChecker",
    "DRCReport",
    "DRCViolation",
    "ViolationKind",
    "run_drc",
    "LayoutMetrics",
    "NetMetrics",
    "compute_metrics",
    "compare_metrics",
    "SmoothedRoute",
    "smooth_route",
    "smooth_layout",
    "default_cut_length",
    "layout_to_svg",
    "save_svg",
    "save_phase_snapshots",
    "layout_to_dict",
    "layout_from_dict",
    "save_layout",
    "load_layout",
]
