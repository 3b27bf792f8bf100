"""Assembling amplifier S-parameter models from a netlist and its layout.

This is the module that turns a *layout* into the RF numbers Figure 11
reports.  A circuit's RF behaviour is described by a :class:`SignalChain`:
the ordered sequence of elements the signal traverses from the input pad to
the output pad — series microstrips, shunt matching stubs, DC-block
capacitors and transistor gain stages.  The chain is defined once per
benchmark circuit (in :mod:`repro.circuits`) against *net and device names*;
the electrical lengths are then taken either from the circuit's target
lengths (the "as designed" reference) or from an actual routed layout, in
which case

* every series/stub microstrip uses its **routed geometric length**, and
* every bend on a routed microstrip inserts a **mitred-bend discontinuity
  two-port**,

so a layout with exact lengths and few bends reproduces the designed
response, while length errors detune the matching networks and extra bends
add loss — precisely the mechanism by which the paper's P-ILP layouts beat
the manual ones in Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RFError
from repro.circuit.device import DeviceType
from repro.circuit.netlist import Netlist
from repro.layout.layout import Layout
from repro.rf.discontinuity import bend_two_port
from repro.rf.elements import (
    microstrip_section,
    open_stub,
    pad_shunt,
    series_capacitor,
    series_inductor,
    series_resistor,
    transistor_stage,
)
from repro.rf.microstrip import MicrostripLine
from repro.rf.network import SParameters, TwoPortNetwork

#: Element kinds a signal chain may contain.
ELEMENT_KINDS = ("line", "stub", "device")


@dataclass(frozen=True)
class ChainElement:
    """One element of a signal chain.

    ``kind`` is ``"line"`` (series microstrip, referenced by net name),
    ``"stub"`` (shunt open stub, referenced by net name) or ``"device"``
    (referenced by device name).
    """

    kind: str
    name: str

    def __post_init__(self) -> None:
        if self.kind not in ELEMENT_KINDS:
            raise RFError(f"unknown chain element kind {self.kind!r}")
        if not self.name:
            raise RFError("chain element must reference a net or device name")


@dataclass(frozen=True)
class SignalChain:
    """The RF signal path of a circuit, from input port to output port."""

    circuit: str
    elements: Tuple[ChainElement, ...]

    def __init__(self, circuit: str, elements: Sequence[ChainElement]) -> None:
        if not elements:
            raise RFError("a signal chain needs at least one element")
        object.__setattr__(self, "circuit", circuit)
        object.__setattr__(self, "elements", tuple(elements))

    @staticmethod
    def from_shorthand(circuit: str, spec: Sequence[Tuple[str, str]]) -> "SignalChain":
        """Build a chain from ``[("line", "ms1"), ("device", "M1"), ...]``."""
        return SignalChain(circuit, [ChainElement(kind, name) for kind, name in spec])

    def device_names(self) -> List[str]:
        return [element.name for element in self.elements if element.kind == "device"]


class AmplifierModel:
    """Builds S-parameters for a circuit given a signal chain.

    Parameters
    ----------
    netlist:
        The circuit (provides target lengths, device parameters, technology).
    chain:
        The RF signal path.
    reference_impedance:
        Port impedance for the S-parameter conversion.
    """

    def __init__(
        self,
        netlist: Netlist,
        chain: SignalChain,
        reference_impedance: float = 50.0,
    ) -> None:
        if reference_impedance <= 0:
            raise RFError("reference impedance must be positive")
        self.netlist = netlist
        self.chain = chain
        self.z0 = reference_impedance
        # Per-net line models and per-(line, sweep) bend discontinuities are
        # cached: every layout candidate of a benchmark re-evaluates the same
        # handful of cross-sections over the same frequency grid.
        self._line_models: dict = {}
        self._bend_networks: dict = {}
        self._validate()

    def _validate(self) -> None:
        for element in self.chain.elements:
            if element.kind in ("line", "stub"):
                if element.name not in self.netlist.microstrip_names:
                    raise RFError(
                        f"signal chain references unknown microstrip {element.name!r}"
                    )
            else:
                if not self.netlist.has_device(element.name):
                    raise RFError(
                        f"signal chain references unknown device {element.name!r}"
                    )

    # ------------------------------------------------------------------ #

    def _line_model(self, net_name: str) -> MicrostripLine:
        model = self._line_models.get(net_name)
        if model is None:
            width = self.netlist.microstrip_width(net_name)
            model = MicrostripLine.from_technology(self.netlist.technology, width=width)
            self._line_models[net_name] = model
        return model

    def _bend_network(
        self, line: MicrostripLine, frequencies: np.ndarray
    ) -> TwoPortNetwork:
        key = (line, frequencies.tobytes())
        network = self._bend_networks.get(key)
        if network is None:
            network = bend_two_port(line, frequencies, mitred=True)
            self._bend_networks[key] = network
        return network

    def _net_geometry(
        self, net_name: str, layout: Optional[Layout]
    ) -> Tuple[float, int]:
        """Return ``(length_um, bend_count)`` for a net.

        Without a layout the circuit's designed (target) length with zero
        bends is used — the "as designed" reference response.
        """
        net = self.netlist.microstrip(net_name)
        if layout is None or not layout.has_route(net_name):
            return net.target_length, 0
        route = layout.route(net_name)
        return route.geometric_length, route.bend_count

    def _element_network(
        self,
        element: ChainElement,
        frequencies: np.ndarray,
        layout: Optional[Layout],
    ) -> TwoPortNetwork:
        if element.kind == "line":
            line = self._line_model(element.name)
            length, bends = self._net_geometry(element.name, layout)
            network = microstrip_section(line, length, frequencies)
            if bends:
                bend = self._bend_network(line, frequencies)
                for _ in range(bends):
                    network = network @ bend
            return network
        if element.kind == "stub":
            line = self._line_model(element.name)
            length, bends = self._net_geometry(element.name, layout)
            # A stub's electrical length is its equivalent length; its bends
            # additionally show up as a (small) shunt loss via the bend model
            # cascaded into the series path.
            delta = self.netlist.technology.bend_compensation
            equivalent = max(length + bends * delta, 0.0)
            network = open_stub(line, equivalent, frequencies)
            if bends:
                bend = self._bend_network(line, frequencies)
                for _ in range(bends):
                    network = network @ bend
            return network
        return self._device_network(element.name, frequencies)

    def _device_network(self, device_name: str, frequencies: np.ndarray) -> TwoPortNetwork:
        device = self.netlist.device(device_name)
        params = dict(device.parameters)
        if device.device_type is DeviceType.TRANSISTOR:
            return transistor_stage(
                frequencies,
                gm_siemens=params.get("gm_ms", 40.0) * 1.0e-3,
                cgs_farad=params.get("cgs_ff", 18.0) * 1.0e-15,
                cds_farad=params.get("cds_ff", 8.0) * 1.0e-15,
                rds_ohm=params.get("rds_ohm", 260.0),
            )
        if device.device_type is DeviceType.CAPACITOR:
            return series_capacitor(params.get("c_ff", 60.0) * 1.0e-15, frequencies)
        if device.device_type is DeviceType.INDUCTOR:
            return series_inductor(params.get("l_ph", 120.0) * 1.0e-12, frequencies)
        if device.device_type is DeviceType.RESISTOR:
            return series_resistor(params.get("r_ohm", 1000.0), frequencies)
        if device.device_type.is_pad:
            return pad_shunt(frequencies, params.get("c_pad_ff", 12.0) * 1.0e-15)
        return TwoPortNetwork.identity(frequencies)

    # ------------------------------------------------------------------ #

    def network(
        self, frequencies: Iterable[float], layout: Optional[Layout] = None
    ) -> TwoPortNetwork:
        """Cascade the whole chain into a single two-port."""
        freq = np.asarray(
            list(frequencies) if not isinstance(frequencies, np.ndarray) else frequencies,
            dtype=float,
        )
        networks = [
            self._element_network(element, freq, layout)
            for element in self.chain.elements
        ]
        return TwoPortNetwork.chain(networks)

    def simulate(
        self, frequencies: Iterable[float], layout: Optional[Layout] = None
    ) -> SParameters:
        """S-parameters of the chain (designed lengths or a routed layout)."""
        return self.network(frequencies, layout).to_sparameters(self.z0)


def default_frequency_sweep(
    operating_frequency_ghz: float, points: int = 121, relative_span: float = 0.45
) -> np.ndarray:
    """A frequency grid centred on the operating frequency (Hz).

    Figure 11 sweeps roughly +/-40% around the operating frequencies of the
    two circuits; the default span mirrors that.
    """
    if operating_frequency_ghz <= 0:
        raise RFError("operating frequency must be positive")
    if points < 2:
        raise RFError("a sweep needs at least two points")
    centre = operating_frequency_ghz * 1.0e9
    return np.linspace(centre * (1.0 - relative_span), centre * (1.0 + relative_span), points)
