"""Property-based tests for circuit serialisation and layout invariants."""

from hypothesis import given, settings, strategies as st

from repro.circuit import (
    LayoutArea,
    MicrostripNet,
    Netlist,
    Terminal,
    make_capacitor,
    make_rf_pad,
    make_transistor,
    netlist_from_dict,
    netlist_to_dict,
)
from repro.layout import Layout, Placement, RoutedMicrostrip, layout_from_dict, layout_to_dict
from repro.geometry import ManhattanPath, Point

lengths = st.floats(min_value=30.0, max_value=900.0)
sizes = st.floats(min_value=20.0, max_value=80.0)


@st.composite
def netlists(draw):
    """Random small netlists: a pad-to-pad chain through 1-3 devices."""
    num_middle = draw(st.integers(min_value=1, max_value=3))
    devices = [make_rf_pad("P_IN"), make_rf_pad("P_OUT")]
    for index in range(num_middle):
        if draw(st.booleans()):
            devices.append(make_transistor(f"M{index}", width=draw(sizes), height=draw(sizes)))
        else:
            devices.append(make_capacitor(f"C{index}", width=draw(sizes), height=draw(sizes)))

    middle_names = [device.name for device in devices[2:]]
    chain = ["P_IN"] + middle_names + ["P_OUT"]
    nets = []
    for index, (first, second) in enumerate(zip(chain, chain[1:])):
        first_pin = "SIG" if first.startswith("P_") else min(
            next(d for d in devices if d.name == first).pins
        )
        second_pin = "SIG" if second.startswith("P_") else min(
            next(d for d in devices if d.name == second).pins
        )
        nets.append(
            MicrostripNet(
                f"net{index}",
                Terminal(first, first_pin),
                Terminal(second, second_pin),
                target_length=draw(lengths),
            )
        )
    area = LayoutArea(draw(st.floats(min_value=500, max_value=1000)),
                      draw(st.floats(min_value=400, max_value=900)))
    return Netlist(f"random{num_middle}", devices, nets, area)


class TestNetlistRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(netlists())
    def test_json_round_trip_preserves_structure(self, netlist):
        rebuilt = netlist_from_dict(netlist_to_dict(netlist))
        assert rebuilt.device_names == netlist.device_names
        assert rebuilt.microstrip_names == netlist.microstrip_names
        for name in netlist.microstrip_names:
            assert rebuilt.microstrip(name).target_length == netlist.microstrip(name).target_length
        assert rebuilt.area.as_tuple() == netlist.area.as_tuple()

    @settings(max_examples=30, deadline=None)
    @given(netlists())
    def test_total_length_is_sum_of_targets(self, netlist):
        assert netlist.total_target_length() == sum(
            net.target_length for net in netlist.microstrips
        )


class TestLayoutRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(netlists())
    def test_layout_json_round_trip(self, netlist):
        layout = Layout(netlist)
        spacing = netlist.area.width / (netlist.num_devices + 1)
        for index, device in enumerate(netlist.devices):
            layout.set_placement(
                Placement(device.name, Point(spacing * (index + 1), netlist.area.height / 2))
            )
        for index, net in enumerate(netlist.microstrips):
            start, end = layout.terminal_positions(net)
            mid = Point(end.x, start.y)
            layout.set_route(
                RoutedMicrostrip(net.name, ManhattanPath([start, mid, end], width=10.0))
            )
        rebuilt = layout_from_dict(layout_to_dict(layout))
        assert rebuilt.is_complete
        for net in netlist.microstrips:
            assert rebuilt.route(net.name).geometric_length == (
                layout.route(net.name).geometric_length
            )
        for device in netlist.devices:
            assert rebuilt.placement(device.name).center == layout.placement(device.name).center
