"""Unit tests for layout metrics (the Table 1 quantities)."""

import pytest

from repro.errors import LayoutError
from repro.geometry import ManhattanPath, Point
from repro.layout import Layout, RoutedMicrostrip, compare_metrics, compute_metrics


class TestComputeMetrics:
    def test_bend_and_length_statistics(self, hand_layout):
        metrics = compute_metrics(hand_layout)
        assert metrics.circuit_name == "tiny"
        assert metrics.num_microstrips == 2
        assert metrics.max_bend_count == 1
        assert metrics.total_bend_count == 1
        assert metrics.total_wirelength > 0
        assert metrics.max_abs_length_error > 0
        assert set(metrics.per_net) == {"ms_in", "ms_out"}

    def test_area_fields(self, hand_layout):
        metrics = compute_metrics(hand_layout)
        assert metrics.area_label == "400x300"

    def test_as_dict_columns(self, hand_layout):
        data = compute_metrics(hand_layout).as_dict()
        assert data["max_bends"] == 1
        assert data["total_bends"] == 1
        assert data["area"] == "400x300"

    def test_partial_layout_allowed_by_default(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        metrics = compute_metrics(layout)
        assert metrics.total_bend_count == 0
        assert metrics.per_net == {}

    def test_partial_layout_rejected_when_required(self, tiny_netlist):
        with pytest.raises(LayoutError):
            compute_metrics(Layout(tiny_netlist), require_complete=True)

    def test_per_net_length_error_sign(self, hand_layout):
        metrics = compute_metrics(hand_layout)
        ms_in = metrics.per_net["ms_in"]
        # The direct route is much shorter than the 250 um target.
        assert ms_in.length_error < 0


class TestCompareMetrics:
    def test_reduction_computation(self, hand_layout):
        baseline = compute_metrics(hand_layout)
        improved_layout = hand_layout.copy()
        # Replace one L-route with a straight route to remove a bend.
        start, end = improved_layout.terminal_positions("ms_out")
        improved_layout.set_route(
            RoutedMicrostrip(
                "ms_out", ManhattanPath([start, Point(end.x, start.y), end], width=10.0)
            )
        )
        candidate = compute_metrics(improved_layout)
        comparison = compare_metrics(baseline, candidate)
        assert comparison["baseline_total_bends"] == 1
        assert comparison["candidate_total_bends"] <= 1
        assert comparison["circuit"] == "tiny"

    def test_different_circuits_rejected(self, hand_layout, small_netlist):
        baseline = compute_metrics(hand_layout)
        other = compute_metrics(Layout(small_netlist))
        with pytest.raises(LayoutError):
            compare_metrics(baseline, other)

    def test_zero_baseline_reduction_is_none(self, hand_layout):
        metrics = compute_metrics(hand_layout)
        zero = compute_metrics(Layout(hand_layout.netlist))
        comparison = compare_metrics(zero, metrics)
        assert comparison["total_bend_reduction"] is None
