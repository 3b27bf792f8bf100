"""Two-port element factories: lines, lumped elements and gain stages.

The amplifier models in :mod:`repro.rf.amplifier` are assembled from these
building blocks.  Everything returns a :class:`TwoPortNetwork` on a given
frequency grid so the blocks compose by cascading.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import RFError
from repro.rf.microstrip import MicrostripLine
from repro.rf.network import TwoPortNetwork, open_stub_admittance
from repro.units import microns_to_meters


def _freq_array(frequencies: Iterable[float]) -> np.ndarray:
    freq = np.asarray(
        list(frequencies) if not isinstance(frequencies, np.ndarray) else frequencies,
        dtype=float,
    )
    if freq.ndim != 1 or freq.size == 0 or np.any(freq <= 0):
        raise RFError("frequencies must be a non-empty 1-D array of positive values")
    return freq


def microstrip_section(
    line: MicrostripLine, length_um: float, frequencies: Iterable[float]
) -> TwoPortNetwork:
    """A series microstrip section of the given physical length."""
    freq = _freq_array(frequencies)
    if length_um < 0:
        raise RFError(f"line length must be non-negative, got {length_um}")
    gamma = line.propagation_constant(freq)
    z0 = np.full(freq.shape, line.characteristic_impedance, dtype=complex)
    return TwoPortNetwork.from_transmission_line(
        freq, gamma, z0, microns_to_meters(length_um)
    )


def open_stub(
    line: MicrostripLine, length_um: float, frequencies: Iterable[float]
) -> TwoPortNetwork:
    """A shunt open-circuited stub of the given length (matching element)."""
    freq = _freq_array(frequencies)
    if length_um < 0:
        raise RFError(f"stub length must be non-negative, got {length_um}")
    gamma = line.propagation_constant(freq)
    z0 = np.full(freq.shape, line.characteristic_impedance, dtype=complex)
    admittance = open_stub_admittance(gamma, z0, microns_to_meters(length_um))
    return TwoPortNetwork.from_shunt_admittance(freq, admittance)


def series_capacitor(c_farad: float, frequencies: Iterable[float]) -> TwoPortNetwork:
    """A series capacitor (e.g. a MIM DC-block)."""
    freq = _freq_array(frequencies)
    if c_farad <= 0:
        raise RFError(f"capacitance must be positive, got {c_farad}")
    omega = 2.0 * np.pi * freq
    return TwoPortNetwork.from_series_impedance(freq, 1.0 / (1j * omega * c_farad))


def shunt_capacitor(c_farad: float, frequencies: Iterable[float]) -> TwoPortNetwork:
    """A shunt capacitor (e.g. a supply decoupling MIM)."""
    freq = _freq_array(frequencies)
    if c_farad <= 0:
        raise RFError(f"capacitance must be positive, got {c_farad}")
    omega = 2.0 * np.pi * freq
    return TwoPortNetwork.from_shunt_admittance(freq, 1j * omega * c_farad)


def series_inductor(l_henry: float, frequencies: Iterable[float]) -> TwoPortNetwork:
    """A series inductor."""
    freq = _freq_array(frequencies)
    if l_henry <= 0:
        raise RFError(f"inductance must be positive, got {l_henry}")
    omega = 2.0 * np.pi * freq
    return TwoPortNetwork.from_series_impedance(freq, 1j * omega * l_henry)


def series_resistor(r_ohm: float, frequencies: Iterable[float]) -> TwoPortNetwork:
    """A series resistor."""
    freq = _freq_array(frequencies)
    if r_ohm < 0:
        raise RFError(f"resistance must be non-negative, got {r_ohm}")
    return TwoPortNetwork.from_series_impedance(freq, complex(r_ohm))


def transistor_stage(
    frequencies: Iterable[float],
    gm_siemens: float = 0.045,
    cgs_farad: float = 18.0e-15,
    cds_farad: float = 8.0e-15,
    rds_ohm: float = 260.0,
    rg_ohm: float = 4.0,
) -> TwoPortNetwork:
    """A unilateral common-source (or cascode) gain stage.

    The model is the standard simplified FET small-signal network: a gate
    resistance in series with C_gs at the input, a transconductance ``gm``
    and an output formed by r_ds in parallel with C_ds.  Cascode stages are
    represented by the same topology with a higher effective r_ds (their
    defining property at these frequencies).
    """
    freq = _freq_array(frequencies)
    if gm_siemens <= 0:
        raise RFError("gm must be positive")
    if cgs_farad <= 0 or cds_farad <= 0 or rds_ohm <= 0:
        raise RFError("transistor parasitics must be positive")
    omega = 2.0 * np.pi * freq
    input_admittance = (1j * omega * cgs_farad) / (
        1.0 + 1j * omega * cgs_farad * rg_ohm
    )
    output_admittance = 1.0 / rds_ohm + 1j * omega * cds_farad
    return TwoPortNetwork.from_voltage_controlled_source(
        freq, gm_siemens, input_admittance, output_admittance
    )


def pad_shunt(
    frequencies: Iterable[float], c_farad: float = 12.0e-15
) -> TwoPortNetwork:
    """The shunt parasitic capacitance of an RF pad."""
    return shunt_capacitor(c_farad, frequencies)
