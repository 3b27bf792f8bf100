"""JSON serialisation of netlists.

The on-disk format is a single JSON document containing the technology, the
layout area, the devices (with pins) and the microstrips (with their exact
target lengths).  It is deliberately simple: the reconstructed benchmark
circuits ship as generator code, but users bring their own circuits as JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Union

from repro.errors import NetlistError
from repro.circuit.device import Device
from repro.circuit.microstrip_net import MicrostripNet
from repro.circuit.netlist import LayoutArea, Netlist
from repro.tech.technology import Technology

#: Current schema version written by :func:`netlist_to_dict`.
SCHEMA_VERSION = 1

PathLike = Union[str, Path]


def netlist_to_dict(netlist: Netlist) -> Dict[str, object]:
    """Serialise a netlist to a JSON-compatible dictionary."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": netlist.name,
        "operating_frequency_ghz": netlist.operating_frequency_ghz,
        "area": {"width": netlist.area.width, "height": netlist.area.height},
        "technology": netlist.technology.as_dict(),
        "devices": [device.as_dict() for device in netlist.devices],
        "microstrips": [net.as_dict() for net in netlist.microstrips],
    }


def netlist_from_dict(data: Mapping[str, object]) -> Netlist:
    """Deserialise a netlist from :func:`netlist_to_dict` output."""
    try:
        version = int(data.get("schema_version", SCHEMA_VERSION))
        if version != SCHEMA_VERSION:
            raise NetlistError(
                f"unsupported netlist schema version {version}; expected {SCHEMA_VERSION}"
            )
        area_data = data["area"]
        area = LayoutArea(float(area_data["width"]), float(area_data["height"]))
        technology_data = data.get("technology")
        technology = (
            Technology.from_dict(dict(technology_data)) if technology_data else None
        )
        devices = [Device.from_dict(entry) for entry in data.get("devices", [])]
        microstrips = [
            MicrostripNet.from_dict(entry) for entry in data.get("microstrips", [])
        ]
        return Netlist(
            name=str(data["name"]),
            devices=devices,
            microstrips=microstrips,
            area=area,
            technology=technology,
            operating_frequency_ghz=float(data.get("operating_frequency_ghz", 60.0)),
        )
    except NetlistError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise NetlistError(f"malformed netlist document: {exc}") from exc


def load_netlist(path: PathLike) -> Netlist:
    """Read a netlist from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise NetlistError(f"netlist file not found: {path}")
    try:
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise NetlistError(f"invalid JSON in {path}: {exc}") from exc
    return netlist_from_dict(data)
