"""Parametric reconstruction of mm-wave amplifier benchmark circuits.

The paper evaluates on three proprietary industrial circuits; only their
aggregate statistics are published (number of microstrips, number of
devices, layout area, operating frequency).  This generator reconstructs
circuits with exactly those statistics:

* a multi-stage common-source/cascode RF chain (input pad, per-stage gate
  matching stub, inter-stage DC-block capacitors and series lines, output
  pad) whose microstrip target lengths are derived from the guided
  wavelength at the operating frequency,
* per-stage gate-bias and drain-supply branches (DC pads, resistors,
  decoupling capacitors) which account for the bulk of the device count in
  real mm-wave layouts,
* additional decoupling capacitors / ground-stub nets to top the counts up
  to the published numbers.

The generator returns both the :class:`~repro.circuit.netlist.Netlist` and
the :class:`~repro.rf.amplifier.SignalChain` describing the circuit's RF
path, so the same object drives Table 1 (layout quality) and Figure 11
(S-parameters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import NetlistError
from repro.circuit.device import (
    Device,
    make_capacitor,
    make_dc_pad,
    make_resistor,
    make_rf_pad,
    make_transistor,
)
from repro.circuit.microstrip_net import MicrostripNet, Terminal
from repro.circuit.netlist import LayoutArea, Netlist
from repro.rf.amplifier import ChainElement, SignalChain
from repro.rf.microstrip import MicrostripLine
from repro.tech.technology import Technology, default_technology


@dataclass(frozen=True)
class AmplifierSpec:
    """Parameters of a reconstructed benchmark circuit.

    Attributes
    ----------
    name:
        Circuit name (``"lna94"``...).
    num_stages:
        Number of gain stages in the RF chain.
    operating_frequency_ghz:
        Centre frequency.
    area:
        Layout area (the paper's first area setting).
    num_microstrips, num_devices:
        Published counts the reconstruction must match exactly.
    stage_gm_ms:
        Transconductance per stage (mS); tuned so that the designed response
        lands in the paper's gain range.
    pad_size, dc_pad_size:
        Pad outline dimensions in micrometres.
    transistor_size, capacitor_size:
        Device outline dimensions in micrometres.
    seed:
        Optional RNG seed.  When set, every microstrip's target length is
        jittered by a deterministic ±6% (``random.Random(seed)``), so one
        specification yields a family of distinct-but-plausible instances —
        the scenario sweeps use this to mass-produce workloads.  ``None``
        (the default) disables the jitter entirely and reproduces the
        published reconstructions bit-for-bit.
    """

    name: str
    num_stages: int
    operating_frequency_ghz: float
    area: LayoutArea
    num_microstrips: int
    num_devices: int
    stage_gm_ms: float = 48.0
    pad_size: float = 70.0
    dc_pad_size: float = 55.0
    transistor_size: Tuple[float, float] = (42.0, 32.0)
    capacitor_size: Tuple[float, float] = (34.0, 34.0)
    resistor_size: Tuple[float, float] = (22.0, 12.0)
    seed: Optional[int] = None


@dataclass
class BenchmarkCircuit:
    """A reconstructed benchmark: netlist + RF signal chain + metadata."""

    netlist: Netlist
    chain: SignalChain
    spec: AmplifierSpec

    @property
    def name(self) -> str:
        return self.netlist.name

    def summary(self) -> Dict[str, object]:
        data = self.netlist.summary()
        data["num_stages"] = self.spec.num_stages
        return data


def build_amplifier_circuit(
    spec: AmplifierSpec,
    technology: Optional[Technology] = None,
    seed: Optional[int] = None,
) -> BenchmarkCircuit:
    """Construct a benchmark circuit from its specification.

    ``seed`` overrides ``spec.seed`` (see :class:`AmplifierSpec`); the
    construction is fully deterministic given the specification and seed.

    Raises :class:`NetlistError` if the requested device / microstrip counts
    are too small to hold the RF chain of ``num_stages`` stages.
    """
    if seed is not None:
        spec = replace(spec, seed=seed)
    rng = random.Random(spec.seed) if spec.seed is not None else None
    technology = technology or default_technology()
    line = MicrostripLine.from_technology(technology)
    wavelength_um = line.guided_wavelength(spec.operating_frequency_ghz * 1.0e9) * 1.0e6

    # Length scale: keep series lines and stubs to fractions of the guided
    # wavelength, but never so long that the netlist cannot fit in its area.
    budget = 0.38 * spec.area.area / (
        technology.microstrip_width + technology.spacing
    )

    devices: List[Device] = []
    nets: List[MicrostripNet] = []
    chain_elements: List[ChainElement] = []

    def add_device(device: Device) -> Device:
        devices.append(device)
        return device

    def add_net(
        name: str,
        start: Tuple[str, str],
        end: Tuple[str, str],
        length: float,
    ) -> MicrostripNet:
        if rng is not None:
            length *= rng.uniform(0.94, 1.06)
        net = MicrostripNet(
            name,
            Terminal(*start),
            Terminal(*end),
            target_length=round(length, 1),
        )
        nets.append(net)
        return net

    # ------------------------------------------------------------------ #
    # the RF chain
    # ------------------------------------------------------------------ #

    series_length = min(0.22 * wavelength_um, 0.55 * min(spec.area.width, spec.area.height))
    stub_length = min(0.12 * wavelength_um, 0.35 * min(spec.area.width, spec.area.height))
    bias_length = 0.45 * stub_length + 60.0

    pad_in = add_device(make_rf_pad("P_IN", size=spec.pad_size))
    pad_out = add_device(make_rf_pad("P_OUT", size=spec.pad_size))

    chain_elements.append(ChainElement("device", pad_in.name))
    previous_node: Tuple[str, str] = (pad_in.name, "SIG")

    transistor_w, transistor_h = spec.transistor_size
    cap_w, cap_h = spec.capacitor_size

    for stage in range(1, spec.num_stages + 1):
        transistor = add_device(
            make_transistor(
                f"M{stage}", width=transistor_w, height=transistor_h, gm_ms=spec.stage_gm_ms
            )
        )
        # Series line into the gate.
        ms_in = add_net(
            f"ms_g{stage}", previous_node, (transistor.name, "G"), series_length
        )
        chain_elements.append(ChainElement("line", ms_in.name))

        # Gate matching stub terminated in a MIM capacitor (RF ground).
        stub_cap = add_device(
            make_capacitor(f"C_g{stage}", width=cap_w, height=cap_h, c_ff=180.0)
        )
        stub = add_net(
            f"stub_g{stage}", (transistor.name, "G"), (stub_cap.name, "P1"), stub_length
        )
        chain_elements.append(ChainElement("stub", stub.name))
        chain_elements.append(ChainElement("device", transistor.name))

        if stage < spec.num_stages:
            # Inter-stage DC block.
            block = add_device(
                make_capacitor(f"C_b{stage}", width=cap_w, height=cap_h, c_ff=90.0)
            )
            ms_d = add_net(
                f"ms_d{stage}", (transistor.name, "D"), (block.name, "P1"),
                0.6 * series_length,
            )
            chain_elements.append(ChainElement("line", ms_d.name))
            chain_elements.append(ChainElement("device", block.name))
            previous_node = (block.name, "P2")
        else:
            previous_node = (transistor.name, "D")

    ms_out = add_net("ms_out", previous_node, (pad_out.name, "SIG"), series_length)
    chain_elements.append(ChainElement("line", ms_out.name))
    chain_elements.append(ChainElement("device", pad_out.name))

    # ------------------------------------------------------------------ #
    # bias and supply branches (not part of the RF chain)
    # ------------------------------------------------------------------ #

    remaining_devices = spec.num_devices - len(devices)
    remaining_nets = spec.num_microstrips - len(nets)
    if remaining_devices < 0 or remaining_nets < 0:
        raise NetlistError(
            f"circuit {spec.name!r}: published counts "
            f"({spec.num_devices} devices, {spec.num_microstrips} microstrips) are "
            f"smaller than the RF chain alone "
            f"({len(devices)} devices, {len(nets)} microstrips)"
        )

    resistor_w, resistor_h = spec.resistor_size
    stage_cycle = list(range(1, spec.num_stages + 1))
    branch_index = 0
    # Gate-bias then drain-supply branches, round-robin over the stages, for
    # as long as both budgets allow a 2-device / 2-net branch.
    while remaining_devices >= 2 and remaining_nets >= 2:
        stage = stage_cycle[branch_index % len(stage_cycle)]
        flavour = "g" if branch_index % 2 == 0 else "d"
        suffix = f"{flavour}{stage}_{branch_index}"
        pad = add_device(make_dc_pad(f"P_{suffix}", size=spec.dc_pad_size))
        if flavour == "g":
            element = add_device(
                make_resistor(f"R_{suffix}", width=resistor_w, height=resistor_h)
            )
            add_net(f"bias_{suffix}a", (pad.name, "SIG"), (element.name, "P1"), bias_length)
            add_net(
                f"bias_{suffix}b", (element.name, "P2"), (f"M{stage}", "G"), bias_length
            )
        else:
            element = add_device(
                make_capacitor(f"C_{suffix}", width=cap_w, height=cap_h, c_ff=400.0)
            )
            add_net(f"vdd_{suffix}a", (pad.name, "SIG"), (element.name, "P1"), bias_length)
            add_net(
                f"vdd_{suffix}b", (element.name, "P2"), (f"M{stage}", "D"), bias_length
            )
        remaining_devices -= 2
        remaining_nets -= 2
        branch_index += 1

    # Decap + single net pairs.
    decap_index = 0
    dc_pads = [device for device in devices if device.device_type.value == "dc_pad"]
    while remaining_devices >= 1 and remaining_nets >= 1 and dc_pads:
        decap = add_device(
            make_capacitor(f"C_dec{decap_index}", width=cap_w, height=cap_h, c_ff=500.0)
        )
        anchor = dc_pads[decap_index % len(dc_pads)]
        add_net(
            f"dec_net{decap_index}", (anchor.name, "SIG"), (decap.name, "P1"),
            0.8 * bias_length,
        )
        remaining_devices -= 1
        remaining_nets -= 1
        decap_index += 1

    # Standalone decoupling capacitors (devices only).
    while remaining_devices >= 1:
        add_device(
            make_capacitor(
                f"C_fill{remaining_devices}", width=cap_w, height=cap_h, c_ff=500.0
            )
        )
        remaining_devices -= 1

    # Extra ground-stub nets between existing capacitors (nets only).
    capacitors = [
        device for device in devices
        if device.device_type.value == "capacitor" and not device.name.startswith("C_b")
    ]
    extra_index = 0
    while remaining_nets >= 1 and len(capacitors) >= 2:
        first = capacitors[extra_index % len(capacitors)]
        second = capacitors[(extra_index + 1) % len(capacitors)]
        add_net(
            f"gnd_stub{extra_index}", (first.name, "P2"), (second.name, "P2"),
            0.6 * bias_length,
        )
        remaining_nets -= 1
        extra_index += 1

    if remaining_nets > 0 or remaining_devices > 0:
        raise NetlistError(
            f"circuit {spec.name!r}: could not reach the published counts "
            f"({remaining_devices} devices, {remaining_nets} microstrips left over)"
        )

    # Keep the total metal demand within the area budget by scaling lengths
    # down if the reconstruction overshoots (never scales the RF chain below
    # half of its nominal electrical lengths).
    total_length = sum(net.target_length for net in nets)
    if total_length > budget:
        scale = max(0.5, budget / total_length)
        nets = [
            MicrostripNet(
                net.name,
                net.start,
                net.end,
                target_length=round(net.target_length * scale, 1),
                width=net.width,
                max_chain_points=net.max_chain_points,
                impedance_ohm=net.impedance_ohm,
            )
            for net in nets
        ]

    netlist = Netlist(
        name=spec.name,
        devices=devices,
        microstrips=nets,
        area=spec.area,
        technology=technology,
        operating_frequency_ghz=spec.operating_frequency_ghz,
    )
    chain = SignalChain(spec.name, chain_elements)
    return BenchmarkCircuit(netlist=netlist, chain=chain, spec=spec)
