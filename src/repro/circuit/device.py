"""Devices, pads and their pins.

An RFIC netlist in this paper contains only a handful of device kinds:
transistors (often cascode pairs), MIM capacitors, spiral inductors,
resistors, and the RF / DC pads along the chip boundary.  For layout
generation a device is simply a rectangle with named pin locations; the
device type matters only for the RF simulation substrate and for reporting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.errors import NetlistError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class DeviceType(enum.Enum):
    """Kind of a circuit device.

    The layout engine treats every kind identically (a rectangle with pins);
    the RF substrate uses the type to pick an electrical model, and pads get
    the boundary-placement constraint of equation (15).
    """

    TRANSISTOR = "transistor"
    CAPACITOR = "capacitor"
    INDUCTOR = "inductor"
    RESISTOR = "resistor"
    RF_PAD = "rf_pad"
    DC_PAD = "dc_pad"
    GENERIC = "generic"

    @property
    def is_pad(self) -> bool:
        return self in (DeviceType.RF_PAD, DeviceType.DC_PAD)


class Rotation(enum.IntEnum):
    """Device orientation in quarter turns counter-clockwise."""

    R0 = 0
    R90 = 1
    R180 = 2
    R270 = 3

    @property
    def degrees(self) -> int:
        return 90 * int(self)

    @staticmethod
    def from_degrees(value: int) -> "Rotation":
        if value % 90 != 0:
            raise NetlistError(f"rotation must be a multiple of 90 degrees, got {value}")
        return Rotation((value // 90) % 4)


@dataclass(frozen=True)
class Pin:
    """A connection point on a device.

    Attributes
    ----------
    name:
        Pin name, unique within its device (e.g. ``"G"``, ``"D"``, ``"S"``).
    offset_x, offset_y:
        Offset of the pin from the device centre in the unrotated (R0)
        orientation, in micrometres.
    equivalence_group:
        Pins sharing a non-empty group label are electrically interchangeable
        (the paper notes that such pins may be swapped by the model, e.g. the
        two terminals of a capacitor).
    """

    name: str
    offset_x: float
    offset_y: float
    equivalence_group: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("pin name must be non-empty")
        if not (math.isfinite(self.offset_x) and math.isfinite(self.offset_y)):
            raise NetlistError(f"pin {self.name!r} has non-finite offsets")

    def offset(self, rotation: Rotation = Rotation.R0) -> Point:
        """Pin offset from the device centre for a given orientation."""
        return Point(self.offset_x, self.offset_y).rotated(int(rotation))


@dataclass(frozen=True)
class Device:
    """A placeable circuit component.

    Attributes
    ----------
    name:
        Unique device identifier within the netlist.
    device_type:
        One of :class:`DeviceType`.
    width, height:
        Outline dimensions in the unrotated orientation, micrometres.
    pins:
        Mapping of pin name to :class:`Pin`.
    rotatable:
        Whether Phase 3 of the flow may rotate this device.  Pads are not
        rotatable (their orientation is fixed by the boundary).
    parameters:
        Free-form electrical parameters consumed by the RF substrate
        (e.g. ``{"gm_ms": 45.0}`` for a transistor or ``{"c_ff": 50.0}`` for
        a capacitor).
    """

    name: str
    device_type: DeviceType
    width: float
    height: float
    pins: Mapping[str, Pin] = field(default_factory=dict)
    rotatable: bool = True
    parameters: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("device name must be non-empty")
        if self.width <= 0 or self.height <= 0:
            raise NetlistError(
                f"device {self.name!r} must have positive dimensions, got "
                f"{self.width} x {self.height}"
            )
        object.__setattr__(self, "pins", dict(self.pins))
        object.__setattr__(self, "parameters", dict(self.parameters))
        for pin_name, pin in self.pins.items():
            if pin_name != pin.name:
                raise NetlistError(
                    f"device {self.name!r}: pin dict key {pin_name!r} does not match "
                    f"pin name {pin.name!r}"
                )
            half_w = self.width / 2.0
            half_h = self.height / 2.0
            margin = 1.0e-6
            if abs(pin.offset_x) > half_w + margin or abs(pin.offset_y) > half_h + margin:
                raise NetlistError(
                    f"device {self.name!r}: pin {pin.name!r} offset "
                    f"({pin.offset_x}, {pin.offset_y}) lies outside the outline"
                )

    # ------------------------------------------------------------------ #

    @property
    def is_pad(self) -> bool:
        """True for RF and DC pads (boundary-constrained devices)."""
        return self.device_type.is_pad

    @property
    def area(self) -> float:
        return self.width * self.height

    def dimensions(self, rotation: Rotation = Rotation.R0) -> Tuple[float, float]:
        """Outline dimensions after rotation (odd turns swap width/height)."""
        if int(rotation) % 2 == 0:
            return (self.width, self.height)
        return (self.height, self.width)

    def pin(self, name: str) -> Pin:
        """Look up a pin by name."""
        try:
            return self.pins[name]
        except KeyError as exc:
            raise NetlistError(
                f"device {self.name!r} has no pin {name!r}; available: {sorted(self.pins)}"
            ) from exc

    def pin_position(
        self, pin_name: str, center: Point, rotation: Rotation = Rotation.R0
    ) -> Point:
        """Absolute pin location for a device placed at ``center``."""
        offset = self.pin(pin_name).offset(rotation)
        return Point(center.x + offset.x, center.y + offset.y)

    def outline(self, center: Point, rotation: Rotation = Rotation.R0) -> Rect:
        """Outline rectangle for a device placed at ``center``."""
        width, height = self.dimensions(rotation)
        return Rect.from_center(center, width, height)

    def equivalent_pins(self, pin_name: str) -> List[str]:
        """Names of pins interchangeable with ``pin_name`` (including itself)."""
        pin = self.pin(pin_name)
        if not pin.equivalence_group:
            return [pin_name]
        return sorted(
            name
            for name, candidate in self.pins.items()
            if candidate.equivalence_group == pin.equivalence_group
        )

    # -- serialisation ----------------------------------------------------- #

    def as_dict(self) -> Dict[str, object]:
        """Serialise to a JSON-friendly dictionary."""
        return {
            "name": self.name,
            "type": self.device_type.value,
            "width": self.width,
            "height": self.height,
            "rotatable": self.rotatable,
            "parameters": dict(self.parameters),
            "pins": [
                {
                    "name": pin.name,
                    "offset_x": pin.offset_x,
                    "offset_y": pin.offset_y,
                    "equivalence_group": pin.equivalence_group,
                }
                for pin in self.pins.values()
            ],
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "Device":
        """Deserialise from :meth:`as_dict` output."""
        try:
            pins_data = data.get("pins", [])
            pins = {
                entry["name"]: Pin(
                    name=entry["name"],
                    offset_x=float(entry["offset_x"]),
                    offset_y=float(entry["offset_y"]),
                    equivalence_group=str(entry.get("equivalence_group", "")),
                )
                for entry in pins_data
            }
            return Device(
                name=str(data["name"]),
                device_type=DeviceType(str(data["type"])),
                width=float(data["width"]),
                height=float(data["height"]),
                pins=pins,
                rotatable=bool(data.get("rotatable", True)),
                parameters={
                    str(key): float(value)
                    for key, value in dict(data.get("parameters", {})).items()
                },
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise NetlistError(f"malformed device record: {exc}") from exc


# --------------------------------------------------------------------------- #
# convenience factories used by the benchmark-circuit generator and tests
# --------------------------------------------------------------------------- #


def make_transistor(
    name: str,
    width: float = 40.0,
    height: float = 30.0,
    gm_ms: float = 40.0,
) -> Device:
    """A common-source RF transistor with gate / drain / source pins."""
    pins = {
        "G": Pin("G", -width / 2.0, 0.0),
        "D": Pin("D", width / 2.0, height / 4.0),
        "S": Pin("S", width / 2.0, -height / 4.0),
    }
    return Device(
        name,
        DeviceType.TRANSISTOR,
        width,
        height,
        pins,
        parameters={"gm_ms": gm_ms},
    )


def make_capacitor(
    name: str,
    width: float = 30.0,
    height: float = 30.0,
    c_ff: float = 60.0,
) -> Device:
    """A MIM capacitor with two interchangeable plates."""
    pins = {
        "P1": Pin("P1", -width / 2.0, 0.0, equivalence_group="plate"),
        "P2": Pin("P2", width / 2.0, 0.0, equivalence_group="plate"),
    }
    return Device(
        name,
        DeviceType.CAPACITOR,
        width,
        height,
        pins,
        parameters={"c_ff": c_ff},
    )


def make_rf_pad(name: str, size: float = 60.0) -> Device:
    """A ground-signal-ground RF pad.

    The signal pin sits at the pad centre: the microstrip runs onto the pad
    metal and terminates there, which keeps the line inside the layout area
    regardless of which boundary edge the pad is attached to.
    """
    pins = {"SIG": Pin("SIG", 0.0, 0.0)}
    return Device(
        name,
        DeviceType.RF_PAD,
        size,
        size,
        pins,
        rotatable=False,
    )


def make_dc_pad(name: str, size: float = 50.0) -> Device:
    """A DC supply / bias pad (signal pin at the pad centre)."""
    pins = {"SIG": Pin("SIG", 0.0, 0.0)}
    return Device(
        name,
        DeviceType.DC_PAD,
        size,
        size,
        pins,
        rotatable=False,
    )


def make_resistor(name: str, width: float = 20.0, height: float = 10.0, r_ohm: float = 1000.0) -> Device:
    """A bias resistor."""
    pins = {
        "P1": Pin("P1", -width / 2.0, 0.0, equivalence_group="terminal"),
        "P2": Pin("P2", width / 2.0, 0.0, equivalence_group="terminal"),
    }
    return Device(
        name,
        DeviceType.RESISTOR,
        width,
        height,
        pins,
        parameters={"r_ohm": r_ohm},
    )
