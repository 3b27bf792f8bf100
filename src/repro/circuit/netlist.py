"""The netlist: devices, microstrips and the layout area they must fit in.

This corresponds to the *input* of the paper's problem formulation
(Section 3): the circuit netlist, the layout area dimensions, device
dimensions, microstrip width / spacing / ``δ`` (via the technology), and the
required exact length of every microstrip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import networkx as nx

from repro.errors import NetlistError
from repro.circuit.device import Device
from repro.circuit.microstrip_net import MicrostripNet
from repro.geometry.rect import Rect
from repro.tech.technology import Technology, default_technology


@dataclass(frozen=True)
class LayoutArea:
    """The rectangular area the layout must fit into, in micrometres."""

    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise NetlistError(
                f"layout area must have positive dimensions, got {self.width} x {self.height}"
            )

    @property
    def rect(self) -> Rect:
        """The area as a rectangle anchored at the origin."""
        return Rect(0.0, 0.0, self.width, self.height)

    @property
    def area(self) -> float:
        return self.width * self.height

    def scaled(self, factor: float) -> "LayoutArea":
        """Return an area scaled uniformly by ``factor`` (same aspect ratio)."""
        if factor <= 0:
            raise NetlistError(f"scale factor must be positive, got {factor}")
        return LayoutArea(self.width * factor, self.height * factor)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.width, self.height)


class Netlist:
    """A complete RFIC circuit description ready for layout generation.

    Parameters
    ----------
    name:
        Circuit name (e.g. ``"lna94"``).
    devices:
        The circuit's devices and pads.
    microstrips:
        The microstrip nets connecting them.
    area:
        Target layout area.
    technology:
        Design rules; defaults to the 90 nm CMOS technology.
    operating_frequency_ghz:
        Centre frequency of the circuit, used by the RF experiments.
    """

    def __init__(
        self,
        name: str,
        devices: Iterable[Device],
        microstrips: Iterable[MicrostripNet],
        area: LayoutArea,
        technology: Technology | None = None,
        operating_frequency_ghz: float = 60.0,
    ) -> None:
        if not name:
            raise NetlistError("netlist name must be non-empty")
        if operating_frequency_ghz <= 0:
            raise NetlistError("operating frequency must be positive")

        self.name = name
        self.area = area
        self.technology = technology or default_technology()
        self.operating_frequency_ghz = float(operating_frequency_ghz)

        self._devices: Dict[str, Device] = {}
        for device in devices:
            if device.name in self._devices:
                raise NetlistError(f"duplicate device name {device.name!r}")
            self._devices[device.name] = device

        self._microstrips: Dict[str, MicrostripNet] = {}
        for net in microstrips:
            if net.name in self._microstrips:
                raise NetlistError(f"duplicate microstrip name {net.name!r}")
            self._microstrips[net.name] = net

        self._check_references()

    # ------------------------------------------------------------------ #
    # consistency
    # ------------------------------------------------------------------ #

    def _check_references(self) -> None:
        for net in self._microstrips.values():
            for terminal in net.terminals:
                device = self._devices.get(terminal.device)
                if device is None:
                    raise NetlistError(
                        f"microstrip {net.name!r} references unknown device "
                        f"{terminal.device!r}"
                    )
                if terminal.pin not in device.pins:
                    raise NetlistError(
                        f"microstrip {net.name!r} references unknown pin "
                        f"{terminal.pin!r} on device {terminal.device!r}"
                    )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def devices(self) -> List[Device]:
        """All devices in deterministic (insertion) order."""
        return list(self._devices.values())

    @property
    def microstrips(self) -> List[MicrostripNet]:
        """All microstrip nets in deterministic (insertion) order."""
        return list(self._microstrips.values())

    @property
    def device_names(self) -> List[str]:
        return list(self._devices)

    @property
    def microstrip_names(self) -> List[str]:
        return list(self._microstrips)

    @property
    def num_devices(self) -> int:
        return len(self._devices)

    @property
    def num_microstrips(self) -> int:
        return len(self._microstrips)

    def device(self, name: str) -> Device:
        try:
            return self._devices[name]
        except KeyError as exc:
            raise NetlistError(f"no device named {name!r} in netlist {self.name!r}") from exc

    def microstrip(self, name: str) -> MicrostripNet:
        try:
            return self._microstrips[name]
        except KeyError as exc:
            raise NetlistError(
                f"no microstrip named {name!r} in netlist {self.name!r}"
            ) from exc

    def has_device(self, name: str) -> bool:
        return name in self._devices

    def pads(self) -> List[Device]:
        """Devices that must sit on the layout boundary."""
        return [device for device in self._devices.values() if device.is_pad]

    def non_pads(self) -> List[Device]:
        """Devices free to move inside the layout area."""
        return [device for device in self._devices.values() if not device.is_pad]

    def microstrips_at(self, device_name: str) -> List[MicrostripNet]:
        """All microstrips with a terminal on the named device."""
        self.device(device_name)
        return [net for net in self._microstrips.values() if net.connects(device_name)]

    def microstrip_width(self, net: MicrostripNet | str) -> float:
        """Effective width of a microstrip (net override or technology default)."""
        if isinstance(net, str):
            net = self.microstrip(net)
        return net.width if net.width is not None else self.technology.microstrip_width

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #

    def total_target_length(self) -> float:
        """Sum of all required microstrip lengths (µm)."""
        return sum(net.target_length for net in self._microstrips.values())

    def total_device_area(self) -> float:
        """Sum of device outline areas (µm²)."""
        return sum(device.area for device in self._devices.values())

    def estimated_metal_area(self) -> float:
        """Rough area demand: devices + microstrip metal (µm²)."""
        strip_area = sum(
            net.target_length * self.microstrip_width(net)
            for net in self._microstrips.values()
        )
        return self.total_device_area() + strip_area

    def area_utilisation(self) -> float:
        """Estimated metal area divided by the layout area."""
        return self.estimated_metal_area() / self.area.area

    def connectivity_graph(self) -> nx.MultiGraph:
        """Device-level connectivity as a networkx multigraph.

        Nodes are device names; each microstrip contributes one edge keyed by
        its name.  Used by the baseline floorplanner (wirelength estimation)
        and by netlist validation (detached components).
        """
        graph = nx.MultiGraph()
        graph.add_nodes_from(self._devices)
        for net in self._microstrips.values():
            graph.add_edge(
                net.start.device,
                net.end.device,
                key=net.name,
                target_length=net.target_length,
            )
        return graph

    def summary(self) -> Dict[str, object]:
        """Key statistics for reports (matches the columns of Table 1)."""
        return {
            "name": self.name,
            "num_microstrips": self.num_microstrips,
            "num_devices": self.num_devices,
            "area_um": f"{self.area.width:.0f}x{self.area.height:.0f}",
            "operating_frequency_ghz": self.operating_frequency_ghz,
            "total_target_length_um": round(self.total_target_length(), 3),
            "area_utilisation": round(self.area_utilisation(), 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, {self.num_devices} devices, "
            f"{self.num_microstrips} microstrips, "
            f"area {self.area.width:.0f}x{self.area.height:.0f} um)"
        )
