"""Layout quality metrics — the quantities reported in Table 1.

For a routed layout the paper reports the *maximum* number of bends on any
single microstrip, the *total* number of bends over all microstrips, the
layout area, and the generation runtime.  This module computes the first
three (runtime is measured by the flows themselves) plus a few additional
quantities used by the RF experiments and the documentation: per-net length
errors, total wirelength and area utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import LayoutError
from repro.layout.layout import Layout


@dataclass(frozen=True)
class NetMetrics:
    """Per-microstrip metrics."""

    net_name: str
    bend_count: int
    geometric_length: float
    equivalent_length: float
    target_length: float

    @property
    def length_error(self) -> float:
        """Signed equivalent-length error against the target (µm)."""
        return self.equivalent_length - self.target_length


@dataclass(frozen=True)
class LayoutMetrics:
    """Whole-layout metrics.

    Attributes mirror the columns of Table 1 (``max_bend_count``,
    ``total_bend_count``) plus supporting quantities.
    """

    circuit_name: str
    num_microstrips: int
    num_devices: int
    max_bend_count: int
    total_bend_count: int
    total_wirelength: float
    max_abs_length_error: float
    total_abs_length_error: float
    area_width: float
    area_height: float
    per_net: Dict[str, NetMetrics] = field(default_factory=dict)

    @property
    def area_label(self) -> str:
        """Area formatted the way Table 1 prints it, e.g. ``890x615``."""
        return f"{self.area_width:.0f}x{self.area_height:.0f}"

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary used by the experiment reports."""
        return {
            "circuit": self.circuit_name,
            "num_microstrips": self.num_microstrips,
            "num_devices": self.num_devices,
            "area": self.area_label,
            "max_bends": self.max_bend_count,
            "total_bends": self.total_bend_count,
            "total_wirelength_um": round(self.total_wirelength, 2),
            "max_abs_length_error_um": round(self.max_abs_length_error, 3),
            "total_abs_length_error_um": round(self.total_abs_length_error, 3),
        }


def compute_metrics(layout: Layout, require_complete: bool = False) -> LayoutMetrics:
    """Compute :class:`LayoutMetrics` for a layout.

    With ``require_complete=True`` a partially routed layout raises
    :class:`~repro.errors.LayoutError`; otherwise missing routes simply do not
    contribute.
    """
    netlist = layout.netlist
    if require_complete and not layout.is_complete:
        raise LayoutError(
            f"layout of {netlist.name!r} is incomplete: "
            f"{len(layout.placements)}/{netlist.num_devices} devices placed, "
            f"{len(layout.routes)}/{netlist.num_microstrips} microstrips routed"
        )

    delta = netlist.technology.bend_compensation
    per_net: Dict[str, NetMetrics] = {}
    for net in netlist.microstrips:
        if not layout.has_route(net.name):
            continue
        route = layout.route(net.name)
        per_net[net.name] = NetMetrics(
            net_name=net.name,
            bend_count=route.bend_count,
            geometric_length=route.geometric_length,
            equivalent_length=route.equivalent_length(delta),
            target_length=net.target_length,
        )

    bend_counts = [metric.bend_count for metric in per_net.values()]
    length_errors = [abs(metric.length_error) for metric in per_net.values()]

    return LayoutMetrics(
        circuit_name=netlist.name,
        num_microstrips=netlist.num_microstrips,
        num_devices=netlist.num_devices,
        max_bend_count=max(bend_counts) if bend_counts else 0,
        total_bend_count=sum(bend_counts),
        total_wirelength=sum(metric.geometric_length for metric in per_net.values()),
        max_abs_length_error=max(length_errors) if length_errors else 0.0,
        total_abs_length_error=sum(length_errors),
        area_width=netlist.area.width,
        area_height=netlist.area.height,
        per_net=per_net,
    )


def compare_metrics(
    baseline: LayoutMetrics, candidate: LayoutMetrics
) -> Dict[str, object]:
    """Compare two layouts of the same circuit (e.g. manual vs P-ILP).

    Returns the bend reductions the paper highlights: how much smaller the
    candidate's maximum and total bend counts are relative to the baseline.
    """
    if baseline.circuit_name != candidate.circuit_name:
        raise LayoutError(
            f"cannot compare metrics of different circuits: "
            f"{baseline.circuit_name!r} vs {candidate.circuit_name!r}"
        )

    def _reduction(before: float, after: float) -> Optional[float]:
        if before == 0:
            return None
        return (before - after) / before

    return {
        "circuit": baseline.circuit_name,
        "baseline_max_bends": baseline.max_bend_count,
        "candidate_max_bends": candidate.max_bend_count,
        "max_bend_reduction": _reduction(
            baseline.max_bend_count, candidate.max_bend_count
        ),
        "baseline_total_bends": baseline.total_bend_count,
        "candidate_total_bends": candidate.total_bend_count,
        "total_bend_reduction": _reduction(
            baseline.total_bend_count, candidate.total_bend_count
        ),
        "baseline_area": baseline.area_label,
        "candidate_area": candidate.area_label,
    }
