"""Design-rule checking for RFIC layouts.

The checker verifies, independently of any optimiser, the constraints of the
paper's problem formulation (Section 3):

* every device is placed inside the layout area and every microstrip segment
  stays inside it,
* the spacing rule (``2t``) holds between every pair of devices / segments
  that are not electrically joined,
* no two microstrips cross (planar routing),
* pads sit on the layout boundary,
* microstrip end points coincide with the pins they must connect,
* the equivalent length of every microstrip matches its required value.

Violations are returned as data, never raised, so callers can decide whether
a partially-converged intermediate layout (e.g. a Phase 1 snapshot) is good
enough to continue from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional

from repro.geometry.overlap import overlap_extents
from repro.geometry.point import Point
from repro.layout.layout import Layout

#: Length-matching tolerance in micrometres.  The ILP matches lengths to
#: solver precision; anything below 0.5 um is far below what affects the RF
#: response at 94 GHz (where a guided wavelength is ~1600 um).
LENGTH_TOLERANCE_UM = 0.5

#: Tolerance for pin-connection and boundary coincidence checks.
POSITION_TOLERANCE_UM = 0.5


class ViolationKind(enum.Enum):
    """Category of a DRC violation."""

    OUTSIDE_AREA = "outside-area"
    SPACING = "spacing"
    CROSSING = "crossing"
    PAD_NOT_ON_BOUNDARY = "pad-not-on-boundary"
    OPEN_CONNECTION = "open-connection"
    LENGTH_MISMATCH = "length-mismatch"
    MISSING_PLACEMENT = "missing-placement"
    MISSING_ROUTE = "missing-route"


@dataclass(frozen=True)
class DRCViolation:
    """One violation found by the checker."""

    kind: ViolationKind
    subject: str
    other: str = ""
    amount: float = 0.0
    message: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        target = f" vs {self.other}" if self.other else ""
        return f"{self.kind.value}: {self.subject}{target} ({self.message})"


@dataclass
class DRCReport:
    """All violations of a layout plus a few convenience views."""

    violations: List[DRCViolation]

    @property
    def is_clean(self) -> bool:
        return not self.violations

    def by_kind(self, kind: ViolationKind) -> List[DRCViolation]:
        return [violation for violation in self.violations if violation.kind is kind]

    def count(self, kind: Optional[ViolationKind] = None) -> int:
        if kind is None:
            return len(self.violations)
        return len(self.by_kind(kind))

    def summary(self) -> Dict[str, int]:
        """Violation counts per kind (only non-zero entries)."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.kind.value] = counts.get(violation.kind.value, 0) + 1
        return counts


class DesignRuleChecker:
    """Configurable design-rule checker.

    Parameters
    ----------
    length_tolerance:
        Allowed absolute deviation of equivalent length from the target, µm.
    position_tolerance:
        Allowed distance between a route end and its pin, µm.
    check_lengths, check_spacing, check_crossings:
        Individual checks can be disabled for intermediate-phase snapshots.
    """

    def __init__(
        self,
        length_tolerance: float = LENGTH_TOLERANCE_UM,
        position_tolerance: float = POSITION_TOLERANCE_UM,
        check_lengths: bool = True,
        check_spacing: bool = True,
        check_crossings: bool = True,
    ) -> None:
        self.length_tolerance = length_tolerance
        self.position_tolerance = position_tolerance
        self.check_lengths = check_lengths
        self.check_spacing = check_spacing
        self.check_crossings = check_crossings

    # ------------------------------------------------------------------ #

    def check(self, layout: Layout) -> DRCReport:
        """Run all enabled checks and return the report."""
        violations: List[DRCViolation] = []
        violations.extend(self._check_completeness(layout))
        violations.extend(self._check_inside_area(layout))
        violations.extend(self._check_pads_on_boundary(layout))
        violations.extend(self._check_connections(layout))
        if self.check_spacing:
            violations.extend(self._check_spacing(layout))
        if self.check_crossings:
            violations.extend(crossing_violations(layout))
        if self.check_lengths:
            violations.extend(self._check_lengths(layout))
        return DRCReport(violations)

    # ------------------------------------------------------------------ #
    # individual checks
    # ------------------------------------------------------------------ #

    def _check_completeness(self, layout: Layout) -> List[DRCViolation]:
        violations = []
        for device in layout.netlist.devices:
            if not layout.has_placement(device.name):
                violations.append(
                    DRCViolation(
                        ViolationKind.MISSING_PLACEMENT,
                        device.name,
                        message="device has no placement",
                    )
                )
        for net in layout.netlist.microstrips:
            if not layout.has_route(net.name):
                violations.append(
                    DRCViolation(
                        ViolationKind.MISSING_ROUTE,
                        net.name,
                        message="microstrip has no routing",
                    )
                )
        return violations

    def _check_inside_area(self, layout: Layout) -> List[DRCViolation]:
        violations = []
        boundary = layout.boundary
        for label, rect in layout.all_outlines().items():
            if not boundary.contains_rect(rect, tolerance=self.position_tolerance):
                overhang = max(
                    boundary.xl - rect.xl,
                    boundary.yl - rect.yl,
                    rect.xr - boundary.xr,
                    rect.yu - boundary.yu,
                )
                violations.append(
                    DRCViolation(
                        ViolationKind.OUTSIDE_AREA,
                        label,
                        amount=overhang,
                        message=f"extends {overhang:.2f} um beyond the layout area",
                    )
                )
        return violations

    def _check_pads_on_boundary(self, layout: Layout) -> List[DRCViolation]:
        violations = []
        boundary = layout.boundary
        for device in layout.netlist.pads():
            if not layout.has_placement(device.name):
                continue
            outline = layout.device_outline(device.name)
            # The pad must sit with (at least) one edge on the layout boundary.
            distance_to_edge = min(
                abs(outline.xl - boundary.xl),
                abs(outline.xr - boundary.xr),
                abs(outline.yl - boundary.yl),
                abs(outline.yu - boundary.yu),
            )
            if distance_to_edge > self.position_tolerance:
                violations.append(
                    DRCViolation(
                        ViolationKind.PAD_NOT_ON_BOUNDARY,
                        device.name,
                        amount=distance_to_edge,
                        message=(
                            f"pad centre is {distance_to_edge:.2f} um away from the "
                            f"nearest boundary edge"
                        ),
                    )
                )
        return violations

    def _check_connections(self, layout: Layout) -> List[DRCViolation]:
        violations = []
        for net in layout.netlist.microstrips:
            if not layout.has_route(net.name):
                continue
            route = layout.route(net.name)
            missing_placements = [
                terminal.device
                for terminal in net.terminals
                if not layout.has_placement(terminal.device)
            ]
            if missing_placements:
                continue  # reported as MISSING_PLACEMENT already
            start_pin, end_pin = layout.terminal_positions(net)
            route_start, route_end = route.path.start, route.path.end
            # The route may legitimately be stored end-to-start.
            direct = max(
                route_start.manhattan_distance(start_pin),
                route_end.manhattan_distance(end_pin),
            )
            swapped = max(
                route_start.manhattan_distance(end_pin),
                route_end.manhattan_distance(start_pin),
            )
            gap = min(direct, swapped)
            # Devices with equivalent pins may connect to any pin in the group.
            if gap > self.position_tolerance:
                gap = self._equivalent_pin_gap(layout, net, route_start, route_end, gap)
            if gap > self.position_tolerance:
                violations.append(
                    DRCViolation(
                        ViolationKind.OPEN_CONNECTION,
                        net.name,
                        amount=gap,
                        message=f"route end is {gap:.2f} um away from its pin",
                    )
                )
        return violations

    def _equivalent_pin_gap(
        self,
        layout: Layout,
        net,
        route_start: Point,
        route_end: Point,
        current_gap: float,
    ) -> float:
        """Best gap allowing interchangeable (equivalence-group) pins."""
        best = current_gap
        start_device = layout.netlist.device(net.start.device)
        end_device = layout.netlist.device(net.end.device)
        start_candidates = [
            layout.pin_position(net.start.device, pin)
            for pin in start_device.equivalent_pins(net.start.pin)
        ]
        end_candidates = [
            layout.pin_position(net.end.device, pin)
            for pin in end_device.equivalent_pins(net.end.pin)
        ]
        for start_candidate in start_candidates:
            for end_candidate in end_candidates:
                direct = max(
                    route_start.manhattan_distance(start_candidate),
                    route_end.manhattan_distance(end_candidate),
                )
                swapped = max(
                    route_start.manhattan_distance(end_candidate),
                    route_end.manhattan_distance(start_candidate),
                )
                best = min(best, direct, swapped)
        return best

    def _check_spacing(self, layout: Layout) -> List[DRCViolation]:
        """Expanded-bounding-box overlap check (the paper's spacing rule)."""
        violations = []
        clearance = layout.netlist.technology.clearance
        outlines = layout.all_outlines(clearance=clearance)
        connected = self._electrically_joined_pairs(layout)
        labels = sorted(outlines)
        for label_a, label_b in combinations(labels, 2):
            if self._same_net(label_a, label_b):
                continue
            if frozenset((self._owner(label_a), self._owner(label_b))) in connected:
                continue
            overlap_x, overlap_y = overlap_extents(outlines[label_a], outlines[label_b])
            # Expanded boxes may touch; a violation needs area overlap beyond
            # numerical noise.
            if overlap_x > POSITION_TOLERANCE_UM and overlap_y > POSITION_TOLERANCE_UM:
                violations.append(
                    DRCViolation(
                        ViolationKind.SPACING,
                        label_a,
                        other=label_b,
                        amount=min(overlap_x, overlap_y),
                        message=(
                            f"expanded bounding boxes overlap by "
                            f"{overlap_x:.2f} x {overlap_y:.2f} um"
                        ),
                    )
                )
        return violations

    def _check_lengths(self, layout: Layout) -> List[DRCViolation]:
        violations = []
        delta = layout.netlist.technology.bend_compensation
        for net in layout.netlist.microstrips:
            if not layout.has_route(net.name):
                continue
            route = layout.route(net.name)
            error = route.length_error(net, delta)
            if abs(error) > self.length_tolerance:
                violations.append(
                    DRCViolation(
                        ViolationKind.LENGTH_MISMATCH,
                        net.name,
                        amount=abs(error),
                        message=(
                            f"equivalent length {route.equivalent_length(delta):.2f} um "
                            f"!= target {net.target_length:.2f} um "
                            f"(error {error:+.2f} um)"
                        ),
                    )
                )
        return violations

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _owner(label: str) -> str:
        """Strip the segment index: ``net:m1[3]`` -> ``net:m1``."""
        return label.split("[", 1)[0]

    @staticmethod
    def _same_net(label_a: str, label_b: str) -> bool:
        """True when two outline labels belong to the same microstrip."""
        owner_a = DesignRuleChecker._owner(label_a)
        owner_b = DesignRuleChecker._owner(label_b)
        return owner_a == owner_b and owner_a.startswith("net:")

    @staticmethod
    def _electrically_joined_pairs(layout: Layout) -> set:
        """Pairs of outline owners allowed to touch/overlap.

        A microstrip is allowed to overlap the devices it terminates on (the
        line lands on the pin, which is inside the device outline expanded by
        the clearance), and two microstrips terminating on the same device
        may approach each other there (the pins of one device are routinely
        closer together than the inter-line spacing rule).
        """
        joined = set()
        device_to_nets: Dict[str, List[str]] = {}
        for net in layout.netlist.microstrips:
            for terminal in net.terminals:
                joined.add(frozenset((f"net:{net.name}", f"dev:{terminal.device}")))
                device_to_nets.setdefault(terminal.device, []).append(net.name)
        for nets in device_to_nets.values():
            for net_a, net_b in combinations(nets, 2):
                joined.add(frozenset((f"net:{net_a}", f"net:{net_b}")))
        return joined


def crossing_violations(layout: Layout) -> List[DRCViolation]:
    """One violation per pair of microstrips whose centre-lines cross."""
    violations = []
    for route_a, route_b in combinations(layout.routes, 2):
        if any(
            segment_a.crosses(segment_b)
            for segment_a in route_a.segments()
            for segment_b in route_b.segments()
        ):
            violations.append(
                DRCViolation(
                    ViolationKind.CROSSING,
                    route_a.net_name,
                    other=route_b.net_name,
                    message="microstrip centre-lines cross",
                )
            )
    return violations


def run_drc(layout: Layout, **kwargs) -> DRCReport:
    """Convenience wrapper: run the checker with default settings."""
    return DesignRuleChecker(**kwargs).check(layout)
