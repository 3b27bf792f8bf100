"""Unit tests for bend smoothing and the SVG / JSON exporters."""

import json
import math

import pytest

from repro.geometry import ManhattanPath, Point
from repro.layout import (
    RoutedMicrostrip,
    default_cut_length,
    layout_from_dict,
    layout_to_dict,
    layout_to_svg,
    load_layout,
    save_layout,
    save_phase_snapshots,
    save_svg,
    smooth_layout,
    smooth_route,
)


def l_route(width=10.0):
    return RoutedMicrostrip(
        "ms_in", ManhattanPath([Point(0, 0), Point(100, 0), Point(100, 60)], width)
    )


class TestSmoothing:
    def test_default_cut_from_negative_delta(self):
        cut = default_cut_length(delta=-4.0, width=10.0)
        assert cut == pytest.approx(4.0 / (2.0 - math.sqrt(2.0)))

    def test_default_cut_fallback_for_positive_delta(self):
        assert default_cut_length(delta=2.0, width=10.0) == pytest.approx(10.0)

    def test_smoothed_route_is_shorter(self):
        route = l_route()
        smoothed = smooth_route(route, delta=-4.0)
        assert smoothed.length < route.geometric_length
        assert len(smoothed.vertices) == 4  # the corner became one diagonal

    def test_length_change_matches_geometric_delta(self):
        route = l_route()
        change = smooth_route(route, delta=-4.0).length - route.geometric_length
        # One smoothed bend shortens the path by cut * (2 - sqrt(2)) = |delta|.
        assert change == pytest.approx(-4.0, abs=1e-6)

    def test_straight_route_unchanged(self):
        route = RoutedMicrostrip(
            "ms_in", ManhattanPath([Point(0, 0), Point(100, 0)], width=10.0)
        )
        smoothed = smooth_route(route, delta=-4.0)
        assert smoothed.length == pytest.approx(100.0)
        assert len(smoothed.vertices) == 2

    def test_smooth_layout_covers_all_routes(self, hand_layout):
        smoothed = smooth_layout(hand_layout)
        assert set(smoothed) == {"ms_in", "ms_out"}


class TestSvgExport:
    def test_svg_contains_devices_and_routes(self, hand_layout):
        svg = layout_to_svg(hand_layout)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "M1" in svg
        assert "polyline" in svg

    def test_svg_scaling_changes_size(self, hand_layout):
        small = layout_to_svg(hand_layout, scale=1.0)
        large = layout_to_svg(hand_layout, scale=2.0)
        assert 'width="440.0"' in small
        assert 'width="880.0"' in large

    def test_save_svg(self, hand_layout, tmp_path):
        path = save_svg(hand_layout, tmp_path / "layout.svg")
        assert path.exists()
        assert path.read_text().startswith("<svg")

    def test_save_phase_snapshots(self, hand_layout, tmp_path):
        paths = save_phase_snapshots(
            {"phase1": hand_layout, "final": hand_layout}, tmp_path / "snaps"
        )
        assert len(paths) == 2
        assert all(path.exists() for path in paths)

    def test_options_toggle_content(self, hand_layout):
        without_labels = layout_to_svg(hand_layout, show_labels=False, show_bends=False)
        assert "<text" not in without_labels
        assert "<circle" not in without_labels


class TestJsonExport:
    def test_dict_round_trip_with_embedded_netlist(self, hand_layout):
        data = layout_to_dict(hand_layout)
        rebuilt = layout_from_dict(data)
        assert rebuilt.is_complete
        assert rebuilt.netlist.name == "tiny"
        assert rebuilt.route("ms_in").geometric_length == pytest.approx(
            hand_layout.route("ms_in").geometric_length
        )

    def test_round_trip_without_embedded_netlist(self, hand_layout, tiny_netlist):
        data = layout_to_dict(hand_layout, embed_netlist=False)
        rebuilt = layout_from_dict(data, netlist=tiny_netlist)
        assert rebuilt.is_complete

    def test_missing_netlist_rejected(self, hand_layout):
        from repro.errors import LayoutError

        data = layout_to_dict(hand_layout, embed_netlist=False)
        with pytest.raises(LayoutError):
            layout_from_dict(data)

    def test_file_round_trip(self, hand_layout, tmp_path):
        path = save_layout(hand_layout, tmp_path / "layout.json")
        loaded = load_layout(path)
        assert loaded.placement("M1").center == hand_layout.placement("M1").center
        raw = json.loads(path.read_text())
        assert raw["circuit"] == "tiny"

    def test_metadata_preserved(self, hand_layout, tmp_path):
        hand_layout.metadata["flow"] = "hand"
        path = save_layout(hand_layout, tmp_path / "layout.json")
        assert load_layout(path).metadata["flow"] == "hand"


class TestExportersCreateParentDirectories:
    """Runner artifact paths like ``cache/ab/cd12/layout.json`` must just work."""

    def test_save_layout_creates_nested_directories(self, hand_layout, tmp_path):
        target = tmp_path / "cache" / "ab" / "cd1234" / "layout.json"
        assert not target.parent.exists()
        written = save_layout(hand_layout, target)
        assert written == target
        assert target.is_file()
        assert load_layout(target).is_complete

    def test_save_svg_creates_nested_directories(self, hand_layout, tmp_path):
        from repro.layout.export_svg import save_svg

        target = tmp_path / "artifacts" / "deep" / "layout.svg"
        assert not target.parent.exists()
        written = save_svg(hand_layout, target)
        assert written == target
        assert target.read_text().startswith("<svg")
