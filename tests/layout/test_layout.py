"""Unit tests for the Layout container."""

import pytest

from repro.errors import LayoutError
from repro.geometry import ManhattanPath, Point
from repro.layout import Layout, Placement, RoutedMicrostrip


class TestPopulation:
    def test_place_and_route_lookup(self, hand_layout):
        assert hand_layout.is_complete
        assert hand_layout.placement("M1").device_name == "M1"
        assert hand_layout.route("ms_in").net_name == "ms_in"

    def test_unknown_device_placement_rejected(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        with pytest.raises(LayoutError):
            layout.set_placement(Placement("GHOST", Point(0, 0)))

    def test_unknown_net_route_rejected(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        path = ManhattanPath([Point(0, 0), Point(10, 0)], width=10.0)
        with pytest.raises(LayoutError):
            layout.set_route(RoutedMicrostrip("ghost", path))

    def test_missing_lookup_raises(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        with pytest.raises(LayoutError):
            layout.placement("M1")
        with pytest.raises(LayoutError):
            layout.route("ms_in")

    def test_is_complete_progression(self, tiny_netlist, hand_layout):
        partial = Layout(tiny_netlist)
        assert not partial.is_complete
        partial.set_placement(Placement("M1", Point(200, 150)))
        assert not partial.is_complete
        assert hand_layout.is_complete


class TestDerivedGeometry:
    def test_pin_positions_follow_placement(self, hand_layout):
        gate = hand_layout.pin_position("M1", "G")
        assert gate == Point(180.0, 150.0)

    def test_terminal_positions(self, hand_layout):
        start, end = hand_layout.terminal_positions("ms_in")
        assert start == hand_layout.pin_position("P_IN", "SIG")
        assert end == hand_layout.pin_position("M1", "G")

    def test_outline_dictionaries(self, hand_layout):
        devices = hand_layout.device_outlines()
        segments = hand_layout.segment_outlines()
        everything = hand_layout.all_outlines()
        assert set(devices) == {"dev:M1", "dev:P_IN", "dev:P_OUT"}
        assert all(key.startswith("net:") for key in segments)
        assert len(everything) == len(devices) + len(segments)

    def test_outline_clearance_expansion(self, hand_layout):
        tight = hand_layout.device_outline("M1")
        expanded = hand_layout.device_outline("M1", clearance=5.0)
        assert expanded.width == pytest.approx(tight.width + 10.0)

    def test_boundary_matches_netlist_area(self, hand_layout):
        assert hand_layout.boundary.as_tuple() == (0.0, 0.0, 400.0, 300.0)


class TestCopies:
    def test_copy_is_independent(self, hand_layout):
        clone = hand_layout.copy()
        clone.set_placement(Placement("M1", Point(111.0, 111.0)))
        assert hand_layout.placement("M1").center != Point(111.0, 111.0)

    def test_with_simplified_routes(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("P_IN", Point(35, 150)))
        layout.set_placement(Placement("P_OUT", Point(365, 150)))
        layout.set_placement(Placement("M1", Point(200, 150)))
        wiggly = ManhattanPath(
            [Point(35, 150), Point(100, 150), Point(180, 150)], width=10.0
        )
        layout.set_route(RoutedMicrostrip("ms_in", wiggly))
        simplified = layout.with_simplified_routes()
        assert len(simplified.route("ms_in").chain_points) == 2
        assert len(layout.route("ms_in").chain_points) == 3

    def test_metadata_copied(self, hand_layout):
        hand_layout.metadata["flow"] = "hand"
        clone = hand_layout.copy()
        clone.metadata["flow"] = "other"
        assert hand_layout.metadata["flow"] == "hand"
