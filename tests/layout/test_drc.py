"""Unit tests for the design-rule checker."""

from repro.geometry import ManhattanPath, Point
from repro.layout import (
    DesignRuleChecker,
    Layout,
    Placement,
    RoutedMicrostrip,
    ViolationKind,
    run_drc,
)


class TestCleanLayout:
    def test_hand_layout_length_mismatch_only(self, hand_layout):
        # The hand layout is geometrically legal but its routes are direct
        # connections, so the required lengths are not met.
        report = run_drc(hand_layout)
        kinds = set(report.summary())
        assert kinds == {"length-mismatch"}

    def test_disable_length_check(self, hand_layout):
        report = DesignRuleChecker(check_lengths=False).check(hand_layout)
        assert report.is_clean

    def test_report_helpers(self, hand_layout):
        report = run_drc(hand_layout)
        assert report.count() == len(report.violations)
        assert report.count(ViolationKind.LENGTH_MISMATCH) == len(
            report.by_kind(ViolationKind.LENGTH_MISMATCH)
        )


class TestCompleteness:
    def test_missing_placement_and_route_reported(self, tiny_netlist):
        report = run_drc(Layout(tiny_netlist))
        assert report.count(ViolationKind.MISSING_PLACEMENT) == 3
        assert report.count(ViolationKind.MISSING_ROUTE) == 2


class TestGeometricChecks:
    def test_outside_area_detected(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("M1", Point(395.0, 150.0)))  # hangs over the right edge
        report = DesignRuleChecker(check_lengths=False).check(layout)
        assert any(
            violation.subject == "dev:M1"
            for violation in report.by_kind(ViolationKind.OUTSIDE_AREA)
        )

    def test_pad_off_boundary_detected(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("P_IN", Point(200.0, 150.0)))  # floating in the middle
        report = DesignRuleChecker(check_lengths=False).check(layout)
        assert report.count(ViolationKind.PAD_NOT_ON_BOUNDARY) == 1

    def test_pad_on_boundary_accepted(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("P_IN", Point(30.0, 150.0)))  # left edge (pad is 60 um wide)
        report = DesignRuleChecker(check_lengths=False).check(layout)
        assert report.count(ViolationKind.PAD_NOT_ON_BOUNDARY) == 0

    def test_spacing_violation_between_devices(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("M1", Point(200.0, 150.0)))
        # M1's right edge is at x = 220; a pad whose left edge sits at x = 225
        # leaves only 5 um of clearance and violates the 10 um rule.
        layout.set_placement(Placement("P_OUT", Point(255.0, 150.0)))
        report = DesignRuleChecker(check_lengths=False).check(layout)
        assert report.count(ViolationKind.SPACING) >= 1

    def test_crossing_detected(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("P_IN", Point(35.0, 150.0)))
        layout.set_placement(Placement("P_OUT", Point(365.0, 150.0)))
        layout.set_placement(Placement("M1", Point(200.0, 40.0)))
        # ms_in runs horizontally across the area; ms_out runs vertically
        # through it — an illegal crossing of two different nets.
        layout.set_route(
            RoutedMicrostrip(
                "ms_in",
                ManhattanPath([Point(35, 150), Point(365, 150)], width=10.0),
            )
        )
        layout.set_route(
            RoutedMicrostrip(
                "ms_out",
                ManhattanPath([Point(200, 47.5), Point(200, 290)], width=10.0),
            )
        )
        checker = DesignRuleChecker(check_lengths=False, check_spacing=False)
        report = checker.check(layout)
        assert report.count(ViolationKind.CROSSING) == 1

    def test_open_connection_detected(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("P_IN", Point(35.0, 150.0)))
        layout.set_placement(Placement("P_OUT", Point(365.0, 150.0)))
        layout.set_placement(Placement("M1", Point(200.0, 150.0)))
        # Route ends 40 um away from the gate pin.
        layout.set_route(
            RoutedMicrostrip(
                "ms_in",
                ManhattanPath([Point(35, 150), Point(140, 150)], width=10.0),
            )
        )
        checker = DesignRuleChecker(check_lengths=False, check_spacing=False)
        report = checker.check(layout)
        assert report.count(ViolationKind.OPEN_CONNECTION) == 1

    def test_reversed_route_direction_accepted(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("P_IN", Point(35.0, 150.0)))
        layout.set_placement(Placement("P_OUT", Point(365.0, 150.0)))
        layout.set_placement(Placement("M1", Point(200.0, 150.0)))
        gate = layout.pin_position("M1", "G")
        pad = layout.pin_position("P_IN", "SIG")
        # Stored end-to-start: still a closed connection.
        layout.set_route(
            RoutedMicrostrip("ms_in", ManhattanPath([gate, pad], width=10.0))
        )
        checker = DesignRuleChecker(check_lengths=False, check_spacing=False)
        assert checker.check(layout).count(ViolationKind.OPEN_CONNECTION) == 0


class TestLengthCheck:
    def test_length_mismatch_amount(self, hand_layout):
        report = run_drc(hand_layout)
        mismatches = report.by_kind(ViolationKind.LENGTH_MISMATCH)
        assert mismatches
        for violation in mismatches:
            assert violation.amount > 0

    def test_exact_length_accepted(self, tiny_netlist):
        layout = Layout(tiny_netlist)
        layout.set_placement(Placement("P_IN", Point(35.0, 150.0)))
        layout.set_placement(Placement("P_OUT", Point(365.0, 150.0)))
        layout.set_placement(Placement("M1", Point(200.0, 150.0)))
        pad = layout.pin_position("P_IN", "SIG")
        gate = layout.pin_position("M1", "G")
        # Direct distance is 145 um; the target is 250 um, so a detour of the
        # right depth plus the bend compensation must land exactly on target.
        # 4 bends at delta = -4 um -> geometric length must be 266 um.
        detour = (266.0 - 145.0) / 2.0
        path = ManhattanPath(
            [
                pad,
                Point(pad.x + 40.0, pad.y),
                Point(pad.x + 40.0, pad.y + detour),
                Point(pad.x + 80.0, pad.y + detour),
                Point(pad.x + 80.0, pad.y),
                gate,
            ],
            width=10.0,
        )
        layout.set_route(RoutedMicrostrip("ms_in", path))
        checker = DesignRuleChecker(check_spacing=False, check_crossings=False)
        report = checker.check(layout)
        mismatch_subjects = [
            violation.subject
            for violation in report.by_kind(ViolationKind.LENGTH_MISMATCH)
        ]
        assert "ms_in" not in mismatch_subjects
