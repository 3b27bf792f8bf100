"""RF simulation substrate (stands in for the paper's ADS simulations)."""

from repro.rf.network import (
    SParameters,
    TwoPortNetwork,
    open_stub_admittance,
)
from repro.rf.microstrip import MicrostripLine
from repro.rf.discontinuity import (
    BendModel,
    bend_two_port,
    delta_versus_frequency,
    extract_delta,
    mitred_bend,
    right_angle_bend,
)
from repro.rf.elements import (
    microstrip_section,
    open_stub,
    pad_shunt,
    series_capacitor,
    series_inductor,
    series_resistor,
    shunt_capacitor,
    transistor_stage,
)
from repro.rf.amplifier import (
    AmplifierModel,
    ChainElement,
    SignalChain,
    default_frequency_sweep,
)

__all__ = [
    "TwoPortNetwork",
    "SParameters",
    "open_stub_admittance",
    "MicrostripLine",
    "BendModel",
    "right_angle_bend",
    "mitred_bend",
    "bend_two_port",
    "extract_delta",
    "delta_versus_frequency",
    "microstrip_section",
    "open_stub",
    "series_capacitor",
    "shunt_capacitor",
    "series_inductor",
    "series_resistor",
    "transistor_stage",
    "pad_shunt",
    "AmplifierModel",
    "SignalChain",
    "ChainElement",
    "default_frequency_sweep",
]
