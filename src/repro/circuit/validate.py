"""Netlist sanity checks run before layout generation.

The constructor of :class:`~repro.circuit.netlist.Netlist` already rejects
structurally broken inputs (dangling references, duplicate names).  The
checks here are *feasibility* warnings: conditions under which the layout
problem is ill-posed or obviously unsolvable, such as devices larger than the
layout area or a total metal demand exceeding the available area.  They are
reported as issues rather than exceptions so that experiments can stress-test
the optimiser on deliberately tight instances (the paper's second, smaller
area setting does exactly that).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

import networkx as nx

from repro.circuit.netlist import Netlist


class Severity(enum.Enum):
    """How serious a validation finding is."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class ValidationIssue:
    """A single validation finding."""

    severity: Severity
    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity.value}] {self.code}: {self.message}"


def validate_netlist(netlist: Netlist) -> List[ValidationIssue]:
    """Run all checks and return the list of findings (possibly empty)."""
    issues: List[ValidationIssue] = []
    issues.extend(_check_device_sizes(netlist))
    issues.extend(_check_pads(netlist))
    issues.extend(_check_lengths(netlist))
    issues.extend(_check_area_budget(netlist))
    issues.extend(_check_connectivity(netlist))
    return issues


# ------------------------------------------------------------------------- #
# individual checks
# ------------------------------------------------------------------------- #


def _check_device_sizes(netlist: Netlist) -> List[ValidationIssue]:
    issues = []
    area = netlist.area
    clearance = netlist.technology.clearance
    for device in netlist.devices:
        if (
            device.width + 2 * clearance > area.width
            or device.height + 2 * clearance > area.height
        ) and (
            device.height + 2 * clearance > area.width
            or device.width + 2 * clearance > area.height
        ):
            issues.append(
                ValidationIssue(
                    Severity.ERROR,
                    "device-too-large",
                    f"device {device.name!r} ({device.width}x{device.height} um) "
                    f"cannot fit in the layout area in any orientation",
                )
            )
    return issues


def _check_pads(netlist: Netlist) -> List[ValidationIssue]:
    issues = []
    pads = netlist.pads()
    if not pads:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                "no-pads",
                "netlist has no pads; boundary constraints will not apply",
            )
        )
    perimeter = 2 * (netlist.area.width + netlist.area.height)
    pad_extent = sum(max(pad.width, pad.height) for pad in pads)
    if pad_extent > perimeter:
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                "pads-exceed-perimeter",
                f"pads need {pad_extent:.0f} um of boundary but only "
                f"{perimeter:.0f} um is available",
            )
        )
    return issues


def _check_lengths(netlist: Netlist) -> List[ValidationIssue]:
    issues = []
    technology = netlist.technology
    for net in netlist.microstrips:
        width = netlist.microstrip_width(net)
        if net.target_length < width:
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    "length-below-width",
                    f"microstrip {net.name!r} target length {net.target_length} um is "
                    f"shorter than its width {width} um",
                )
            )
        diagonal = netlist.area.width + netlist.area.height
        # A single net folded into serpentines can exceed the half-perimeter
        # many times over, but a target beyond ~6x the half-perimeter will not
        # fit in practice once spacing is honoured.
        if net.target_length > 6.0 * diagonal:
            issues.append(
                ValidationIssue(
                    Severity.ERROR,
                    "length-unreachable",
                    f"microstrip {net.name!r} target length {net.target_length:.0f} um "
                    f"greatly exceeds what fits in the area (half-perimeter "
                    f"{diagonal:.0f} um)",
                )
            )
        if abs(technology.bend_compensation) > net.target_length:
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    "delta-dominates-length",
                    f"microstrip {net.name!r}: |bend compensation| exceeds the target "
                    f"length; bend counting will dominate the length budget",
                )
            )
    return issues


def _check_area_budget(netlist: Netlist) -> List[ValidationIssue]:
    issues = []
    utilisation = netlist.area_utilisation()
    if utilisation > 1.0:
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                "over-capacity",
                f"estimated metal area exceeds the layout area "
                f"(utilisation {utilisation:.2f})",
            )
        )
    elif utilisation > 0.8:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                "high-utilisation",
                f"estimated utilisation {utilisation:.2f} is high; the solver may "
                f"need more chain points or a longer time limit",
            )
        )
    return issues


def _check_connectivity(netlist: Netlist) -> List[ValidationIssue]:
    issues = []
    graph = netlist.connectivity_graph()
    if netlist.num_devices and not nx.is_connected(nx.Graph(graph)):
        components = list(nx.connected_components(nx.Graph(graph)))
        issues.append(
            ValidationIssue(
                Severity.INFO,
                "disconnected",
                f"netlist has {len(components)} connected components; isolated "
                f"devices (e.g. decoupling structures) are placed but not routed",
            )
        )
    for device in netlist.devices:
        degree = len(netlist.microstrips_at(device.name))
        if degree == 0 and not device.is_pad:
            issues.append(
                ValidationIssue(
                    Severity.INFO,
                    "unconnected-device",
                    f"device {device.name!r} has no microstrip connections",
                )
            )
        if degree > len(device.pins):
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    "pin-contention",
                    f"device {device.name!r} has {degree} microstrips but only "
                    f"{len(device.pins)} pins; several lines share a pin",
                )
            )
    return issues
