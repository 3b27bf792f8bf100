"""Microstrip nets: two-terminal transmission-line connections.

In mm-wave RFICs every signal interconnect is a microstrip transmission line
whose electrical length is fixed during circuit design (it is part of the
matching networks).  A :class:`MicrostripNet` therefore carries not just its
two terminals but also the *exact* length the routed line must realise —
constraint (13) of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import NetlistError


@dataclass(frozen=True)
class Terminal:
    """One end of a microstrip: a (device, pin) pair."""

    device: str
    pin: str

    def __post_init__(self) -> None:
        if not self.device or not self.pin:
            raise NetlistError(
                f"terminal must name a device and a pin, got ({self.device!r}, {self.pin!r})"
            )

    def as_tuple(self) -> Tuple[str, str]:
        return (self.device, self.pin)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.device}.{self.pin}"


@dataclass(frozen=True)
class MicrostripNet:
    """A two-terminal microstrip with a required electrical length.

    Attributes
    ----------
    name:
        Unique net identifier.
    start, end:
        The two :class:`Terminal` connections.
    target_length:
        Required equivalent (electrical) length in micrometres.  The routed
        line's equivalent length (geometric + bends * δ) must equal this.
    width:
        Microstrip width override in micrometres; ``None`` means "use the
        technology default".
    max_chain_points:
        Initial number of chain points the ILP model allocates for this net
        (Phase 3 may insert more).  ``None`` lets the flow choose.
    impedance_ohm:
        Nominal characteristic impedance used by the RF substrate.
    """

    name: str
    start: Terminal
    end: Terminal
    target_length: float
    width: Optional[float] = None
    max_chain_points: Optional[int] = None
    impedance_ohm: float = 50.0

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("microstrip name must be non-empty")
        if not math.isfinite(self.target_length) or self.target_length <= 0:
            raise NetlistError(
                f"microstrip {self.name!r}: target_length must be positive, got "
                f"{self.target_length!r}"
            )
        if self.width is not None and self.width <= 0:
            raise NetlistError(
                f"microstrip {self.name!r}: width must be positive when given"
            )
        if self.max_chain_points is not None and self.max_chain_points < 2:
            raise NetlistError(
                f"microstrip {self.name!r}: at least two chain points are required"
            )
        if self.impedance_ohm <= 0:
            raise NetlistError(
                f"microstrip {self.name!r}: impedance must be positive"
            )
        if self.start == self.end:
            raise NetlistError(
                f"microstrip {self.name!r} connects a pin to itself"
            )

    # ------------------------------------------------------------------ #

    @property
    def terminals(self) -> Tuple[Terminal, Terminal]:
        return (self.start, self.end)

    def connects(self, device_name: str) -> bool:
        """True when either terminal lands on the named device."""
        return self.start.device == device_name or self.end.device == device_name

    # -- serialisation ------------------------------------------------------ #

    def as_dict(self) -> Dict[str, object]:
        """Serialise to a JSON-friendly dictionary."""
        return {
            "name": self.name,
            "start": {"device": self.start.device, "pin": self.start.pin},
            "end": {"device": self.end.device, "pin": self.end.pin},
            "target_length": self.target_length,
            "width": self.width,
            "max_chain_points": self.max_chain_points,
            "impedance_ohm": self.impedance_ohm,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "MicrostripNet":
        """Deserialise from :meth:`as_dict` output."""
        try:
            start = data["start"]
            end = data["end"]
            width = data.get("width")
            chain_points = data.get("max_chain_points")
            return MicrostripNet(
                name=str(data["name"]),
                start=Terminal(str(start["device"]), str(start["pin"])),
                end=Terminal(str(end["device"]), str(end["pin"])),
                target_length=float(data["target_length"]),
                width=float(width) if width is not None else None,
                max_chain_points=int(chain_points) if chain_points is not None else None,
                impedance_ohm=float(data.get("impedance_ohm", 50.0)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise NetlistError(f"malformed microstrip record: {exc}") from exc
