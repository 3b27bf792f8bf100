"""Unit tests for netlist validation checks."""

from repro.circuit import (
    LayoutArea,
    MicrostripNet,
    Netlist,
    Severity,
    Terminal,
    make_capacitor,
    make_rf_pad,
    make_transistor,
    validate_netlist,
)
from tests.conftest import build_small_netlist, build_tiny_netlist


def issue_codes(netlist):
    return {issue.code for issue in validate_netlist(netlist)}


def error_codes(netlist):
    return {issue.code for issue in validate_netlist(netlist) if issue.severity is Severity.ERROR}


class TestCleanNetlists:
    def test_small_netlist_has_no_errors(self):
        issues = validate_netlist(build_small_netlist())
        assert not [issue for issue in issues if issue.severity is Severity.ERROR]

    def test_tiny_netlist_has_no_errors(self):
        assert not error_codes(build_tiny_netlist())


class TestDeviceSizeCheck:
    def test_oversized_device_is_an_error(self):
        huge = make_capacitor("C_HUGE", width=500.0, height=500.0)
        netlist = Netlist("bad", [huge], [], LayoutArea(200.0, 200.0))
        assert "device-too-large" in error_codes(netlist)

    def test_rotatable_fit_is_accepted(self):
        # 180 x 80 does not fit a 100 x 200 area directly but does when rotated.
        tall = make_capacitor("C1", width=180.0, height=80.0)
        netlist = Netlist("ok", [tall], [], LayoutArea(100.0, 200.0))
        assert "device-too-large" not in issue_codes(netlist)


class TestPadChecks:
    def test_no_pads_warning(self):
        netlist = Netlist(
            "nopads", [make_transistor("M1")], [], LayoutArea(300.0, 300.0)
        )
        assert "no-pads" in issue_codes(netlist)

    def test_too_many_pads_error(self):
        pads = [make_rf_pad(f"P{i}", size=90.0) for i in range(20)]
        netlist = Netlist("padwall", pads, [], LayoutArea(200.0, 200.0))
        assert "pads-exceed-perimeter" in issue_codes(netlist)


class TestLengthChecks:
    def test_unreachable_length_error(self):
        devices = [make_rf_pad("P1"), make_rf_pad("P2")]
        net = MicrostripNet("m", Terminal("P1", "SIG"), Terminal("P2", "SIG"), 9000.0)
        netlist = Netlist("long", devices, [net], LayoutArea(300.0, 300.0))
        assert "length-unreachable" in issue_codes(netlist)

    def test_length_below_width_warning(self):
        devices = [make_rf_pad("P1"), make_rf_pad("P2")]
        net = MicrostripNet("m", Terminal("P1", "SIG"), Terminal("P2", "SIG"), 5.0)
        netlist = Netlist("short", devices, [net], LayoutArea(300.0, 300.0))
        assert "length-below-width" in issue_codes(netlist)


class TestConnectivityChecks:
    def test_unconnected_device_is_informational(self):
        devices = [make_rf_pad("P1"), make_rf_pad("P2"), make_capacitor("C_orphan")]
        net = MicrostripNet("m", Terminal("P1", "SIG"), Terminal("P2", "SIG"), 200.0)
        netlist = Netlist("orphan", devices, [net], LayoutArea(400.0, 300.0))
        codes = issue_codes(netlist)
        assert "unconnected-device" in codes
        assert "disconnected" in codes
        # informational only: no ERROR-severity issue
        assert not error_codes(netlist)

    def test_pin_contention_warning(self):
        devices = [make_rf_pad("P1"), make_rf_pad("P2"), make_rf_pad("P3")]
        nets = [
            MicrostripNet("m1", Terminal("P1", "SIG"), Terminal("P2", "SIG"), 200.0),
            MicrostripNet("m2", Terminal("P1", "SIG"), Terminal("P3", "SIG"), 200.0),
        ]
        netlist = Netlist("contention", devices, nets, LayoutArea(500.0, 400.0))
        assert "pin-contention" in issue_codes(netlist)
