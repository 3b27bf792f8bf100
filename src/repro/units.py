"""Unit conventions, physical constants and the micrometre-to-metre conversion.

The geometric parts of the library work in **micrometres** (µm), matching the
dimensions quoted in the paper (layout areas such as 890 µm x 615 µm, ground
plane distance t ~ 5 µm).  The RF parts work in SI units: Hertz for
frequencies, Ohms for impedances, metres for physical lengths used in
electrical calculations.  This module centralises the conversions so the two
worlds meet in exactly one place.
"""

from __future__ import annotations

import math

#: Number of metres in one micrometre.
METERS_PER_MICRON = 1.0e-6

#: Free-space speed of light in metres per second.
SPEED_OF_LIGHT = 299_792_458.0

#: Free-space permittivity in Farads per metre.
EPSILON_0 = 8.854_187_8128e-12

#: Free-space permeability in Henry per metre.
MU_0 = 4.0e-7 * math.pi

#: Free-space wave impedance in Ohms.
ETA_0 = math.sqrt(MU_0 / EPSILON_0)


def microns_to_meters(value_um: float) -> float:
    """Convert a length in micrometres to metres."""
    return value_um * METERS_PER_MICRON
