"""Circuit netlist model: devices, pads, microstrip nets and their I/O."""

from repro.circuit.device import (
    Device,
    DeviceType,
    Pin,
    Rotation,
    make_capacitor,
    make_dc_pad,
    make_resistor,
    make_rf_pad,
    make_transistor,
)
from repro.circuit.microstrip_net import MicrostripNet, Terminal
from repro.circuit.netlist import LayoutArea, Netlist
from repro.circuit.loader import load_netlist, netlist_from_dict, netlist_to_dict
from repro.circuit.validate import Severity, ValidationIssue, validate_netlist

__all__ = [
    "Device",
    "DeviceType",
    "Pin",
    "Rotation",
    "make_transistor",
    "make_capacitor",
    "make_resistor",
    "make_rf_pad",
    "make_dc_pad",
    "MicrostripNet",
    "Terminal",
    "Netlist",
    "LayoutArea",
    "netlist_to_dict",
    "netlist_from_dict",
    "load_netlist",
    "validate_netlist",
    "ValidationIssue",
    "Severity",
]
