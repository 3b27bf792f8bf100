"""Unit tests for the netlist container."""

import networkx as nx
import pytest

from repro.errors import NetlistError
from repro.circuit import (
    LayoutArea,
    MicrostripNet,
    Netlist,
    Terminal,
    make_rf_pad,
)
from tests.conftest import build_small_netlist, build_tiny_netlist


class TestLayoutArea:
    def test_properties(self):
        area = LayoutArea(890.0, 615.0)
        assert area.area == pytest.approx(890.0 * 615.0)
        assert area.rect.as_tuple() == (0.0, 0.0, 890.0, 615.0)

    def test_invalid_dimensions(self):
        with pytest.raises(NetlistError):
            LayoutArea(0.0, 100.0)

    def test_scaling(self):
        scaled = LayoutArea(100.0, 50.0).scaled(0.5)
        assert scaled.as_tuple() == (50.0, 25.0)
        with pytest.raises(NetlistError):
            LayoutArea(10, 10).scaled(0.0)


class TestNetlistConstruction:
    def test_counts(self):
        netlist = build_small_netlist()
        assert netlist.num_devices == 6
        assert netlist.num_microstrips == 5

    def test_duplicate_device_rejected(self):
        with pytest.raises(NetlistError):
            Netlist(
                "dup",
                [make_rf_pad("P"), make_rf_pad("P")],
                [],
                LayoutArea(100, 100),
            )

    def test_duplicate_net_rejected(self):
        devices = [make_rf_pad("P1"), make_rf_pad("P2")]
        net = MicrostripNet("m", Terminal("P1", "SIG"), Terminal("P2", "SIG"), 100.0)
        with pytest.raises(NetlistError):
            Netlist("dup", devices, [net, net], LayoutArea(300, 300))

    def test_dangling_device_reference_rejected(self):
        net = MicrostripNet("m", Terminal("GHOST", "SIG"), Terminal("P2", "SIG"), 100.0)
        with pytest.raises(NetlistError):
            Netlist("bad", [make_rf_pad("P2")], [net], LayoutArea(300, 300))

    def test_dangling_pin_reference_rejected(self):
        net = MicrostripNet("m", Terminal("P1", "NOPE"), Terminal("P2", "SIG"), 100.0)
        with pytest.raises(NetlistError):
            Netlist(
                "bad", [make_rf_pad("P1"), make_rf_pad("P2")], [net], LayoutArea(300, 300)
            )

    def test_invalid_frequency(self):
        with pytest.raises(NetlistError):
            Netlist("bad", [], [], LayoutArea(10, 10), operating_frequency_ghz=0.0)


class TestNetlistQueries:
    def test_lookup(self):
        netlist = build_tiny_netlist()
        assert netlist.device("M1").name == "M1"
        assert netlist.microstrip("ms_in").name == "ms_in"
        with pytest.raises(NetlistError):
            netlist.device("nope")
        with pytest.raises(NetlistError):
            netlist.microstrip("nope")

    def test_pads_and_non_pads(self):
        netlist = build_small_netlist()
        assert {device.name for device in netlist.pads()} == {"P_IN", "P_OUT", "P_VDD"}
        assert len(netlist.non_pads()) == 3

    def test_microstrips_at(self):
        netlist = build_small_netlist()
        names = {net.name for net in netlist.microstrips_at("M1")}
        assert names == {"ms1", "ms2", "ms5"}

    def test_microstrip_width_defaults_to_technology(self):
        netlist = build_tiny_netlist()
        assert netlist.microstrip_width("ms_in") == netlist.technology.microstrip_width

    def test_total_target_length(self):
        netlist = build_tiny_netlist()
        assert netlist.total_target_length() == pytest.approx(550.0)

    def test_connectivity_graph(self):
        netlist = build_small_netlist()
        graph = netlist.connectivity_graph()
        assert isinstance(graph, nx.MultiGraph)
        assert graph.number_of_nodes() == 6
        assert graph.number_of_edges() == 5

    def test_summary_fields(self):
        summary = build_small_netlist().summary()
        assert summary["num_microstrips"] == 5
        assert summary["num_devices"] == 6
        assert summary["area_um"] == "600x450"
        assert 0 < summary["area_utilisation"] < 1
