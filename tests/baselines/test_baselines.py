"""Tests of the manual-like baseline: SA placer + serpentine router."""

import pytest

from repro.baselines import (
    AnnealingConfig,
    AnnealingPlacer,
    GreedyRouter,
    GreedyRouterConfig,
)
from repro.layout import ViolationKind, run_drc
from tests.conftest import build_small_netlist, build_tiny_netlist


@pytest.fixture(scope="module")
def placed_small():
    netlist = build_small_netlist()
    placer = AnnealingPlacer(AnnealingConfig(iterations=1500, seed=11))
    return netlist, placer.place_layout(netlist)


class TestAnnealingPlacer:
    def test_places_every_device(self, placed_small):
        netlist, layout = placed_small
        assert len(layout.placements) == netlist.num_devices

    def test_outlines_inside_area(self, placed_small):
        netlist, layout = placed_small
        boundary = netlist.area.rect
        for device in netlist.devices:
            assert boundary.contains_rect(layout.device_outline(device.name))

    def test_pads_stay_on_boundary(self, placed_small):
        netlist, layout = placed_small
        report = run_drc(layout)
        assert report.count(ViolationKind.PAD_NOT_ON_BOUNDARY) == 0

    def test_deterministic_given_seed(self):
        netlist = build_tiny_netlist()
        config = AnnealingConfig(iterations=400, seed=3)
        first, _ = AnnealingPlacer(config).place(netlist)
        second, _ = AnnealingPlacer(config).place(netlist)
        assert {name: p.center for name, p in first.items()} == {
            name: p.center for name, p in second.items()
        }

    def test_annealing_improves_over_initial_cost(self):
        netlist = build_small_netlist()
        placer = AnnealingPlacer(AnnealingConfig(iterations=1500, seed=5))
        initial = placer._initial_placements(netlist)
        initial_cost = placer._cost(netlist, initial)
        final, _ = placer.place(netlist)
        final_cost = placer._cost(netlist, final)
        assert final_cost <= initial_cost


class TestGreedyRouter:
    def test_routes_every_net(self, placed_small):
        netlist, layout = placed_small
        routed = GreedyRouter().route_layout(layout)
        assert routed.is_complete

    def test_equivalent_lengths_within_tolerance(self, placed_small):
        netlist, layout = placed_small
        config = GreedyRouterConfig(length_tolerance=2.0)
        routed = GreedyRouter(config).route_layout(layout)
        delta = netlist.technology.bend_compensation
        for net in netlist.microstrips:
            route = routed.route(net.name)
            direct = route.path.start.manhattan_distance(route.path.end)
            if direct <= net.target_length:
                error = abs(route.equivalent_length(delta) - net.target_length)
                assert error <= config.length_tolerance + 1e-6

    def test_routes_land_on_pins(self, placed_small):
        netlist, layout = placed_small
        routed = GreedyRouter().route_layout(layout)
        report = run_drc(routed)
        assert report.count(ViolationKind.OPEN_CONNECTION) == 0

    def test_detours_cost_bends(self, placed_small):
        netlist, layout = placed_small
        routed = GreedyRouter().route_layout(layout)
        total_bends = sum(route.bend_count for route in routed.routes)
        assert total_bends > 0

    def test_lobe_budget_respected(self, placed_small):
        netlist, layout = placed_small
        config = GreedyRouterConfig(max_lobes=1)
        routed = GreedyRouter(config).route_layout(layout)
        for route in routed.routes:
            # One lobe plus the connecting L: at most ~6 corners.
            assert route.bend_count <= 6


class TestManualLikeFlow:
    def test_flow_produces_complete_layout(self, manual_small_result):
        assert manual_small_result.layout.is_complete
        assert manual_small_result.runtime > 0

    def test_summary_flow_name(self, manual_small_result):
        assert manual_small_result.summary()["flow"] == "manual-like"

    def test_metrics_populated(self, manual_small_result):
        assert manual_small_result.metrics.total_bend_count >= 0
        assert manual_small_result.metrics.total_wirelength > 0
