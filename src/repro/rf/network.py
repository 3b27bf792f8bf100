"""Two-port network algebra: ABCD matrices, cascading and S-parameters.

This module is the numerical backbone of the RF substrate that stands in for
the paper's ADS simulations.  Everything is vectorised over frequency: a
:class:`TwoPortNetwork` stores one complex ABCD matrix per frequency point,
cascades via matrix multiplication, and converts to S-parameters against a
real reference impedance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import RFError


def _as_frequency_array(frequencies: Iterable[float]) -> np.ndarray:
    freq = np.asarray(list(frequencies) if not isinstance(frequencies, np.ndarray) else frequencies, dtype=float)
    if freq.ndim != 1 or freq.size == 0:
        raise RFError("frequencies must be a non-empty 1-D array")
    if np.any(freq <= 0):
        raise RFError("frequencies must be positive")
    return freq


@dataclass(frozen=True)
class SParameters:
    """Two-port scattering parameters over a frequency sweep.

    Attributes
    ----------
    frequencies:
        Frequency points in Hz.
    s11, s12, s21, s22:
        Complex S-parameters, one entry per frequency point.
    z0:
        Real reference impedance in Ohms.
    """

    frequencies: np.ndarray
    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray
    z0: float = 50.0

    def __post_init__(self) -> None:
        n = self.frequencies.size
        for name in ("s11", "s12", "s21", "s22"):
            if getattr(self, name).shape != (n,):
                raise RFError(f"{name} must have the same shape as frequencies")

    # -- dB views ----------------------------------------------------------- #

    @staticmethod
    def _db(values: np.ndarray) -> np.ndarray:
        magnitude = np.abs(values)
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(magnitude)

    @property
    def s11_db(self) -> np.ndarray:
        return self._db(self.s11)

    @property
    def s21_db(self) -> np.ndarray:
        return self._db(self.s21)

    @property
    def s12_db(self) -> np.ndarray:
        return self._db(self.s12)

    @property
    def s22_db(self) -> np.ndarray:
        return self._db(self.s22)

    # -- scalar figures of merit --------------------------------------------- #

    def at(self, frequency_hz: float) -> dict:
        """Interpolated S-parameters (dB) at one frequency."""
        if not (self.frequencies[0] <= frequency_hz <= self.frequencies[-1]):
            raise RFError(
                f"frequency {frequency_hz:.3e} Hz outside the swept range "
                f"[{self.frequencies[0]:.3e}, {self.frequencies[-1]:.3e}]"
            )
        return {
            "frequency_hz": frequency_hz,
            "s11_db": float(np.interp(frequency_hz, self.frequencies, self.s11_db)),
            "s21_db": float(np.interp(frequency_hz, self.frequencies, self.s21_db)),
            "s12_db": float(np.interp(frequency_hz, self.frequencies, self.s12_db)),
            "s22_db": float(np.interp(frequency_hz, self.frequencies, self.s22_db)),
        }

    def gain_db(self, frequency_hz: float) -> float:
        """|S21| in dB at a frequency (the paper's headline metric)."""
        return self.at(frequency_hz)["s21_db"]

    def input_return_loss_db(self, frequency_hz: float) -> float:
        """|S11| in dB at a frequency (more negative is better)."""
        return self.at(frequency_hz)["s11_db"]

    def output_return_loss_db(self, frequency_hz: float) -> float:
        """|S22| in dB at a frequency (more negative is better)."""
        return self.at(frequency_hz)["s22_db"]

    def as_dict(self) -> dict:
        """JSON-friendly representation (dB magnitudes only)."""
        return {
            "frequencies_ghz": (self.frequencies / 1e9).tolist(),
            "s11_db": self.s11_db.tolist(),
            "s21_db": self.s21_db.tolist(),
            "s12_db": self.s12_db.tolist(),
            "s22_db": self.s22_db.tolist(),
            "z0_ohm": self.z0,
        }


class TwoPortNetwork:
    """A reciprocal-or-not two-port described by per-frequency ABCD matrices."""

    def __init__(self, frequencies: Iterable[float], abcd: np.ndarray) -> None:
        self.frequencies = _as_frequency_array(frequencies)
        abcd = np.asarray(abcd, dtype=complex)
        expected = (self.frequencies.size, 2, 2)
        if abcd.shape != expected:
            raise RFError(f"abcd must have shape {expected}, got {abcd.shape}")
        self.abcd = abcd

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def identity(frequencies: Iterable[float]) -> "TwoPortNetwork":
        """A through connection (unit ABCD matrix at every frequency)."""
        freq = _as_frequency_array(frequencies)
        abcd = np.tile(np.eye(2, dtype=complex), (freq.size, 1, 1))
        return TwoPortNetwork(freq, abcd)

    @staticmethod
    def from_series_impedance(
        frequencies: Iterable[float], impedance: np.ndarray | complex
    ) -> "TwoPortNetwork":
        """A series element:  [[1, Z], [0, 1]]."""
        freq = _as_frequency_array(frequencies)
        z = np.broadcast_to(np.asarray(impedance, dtype=complex), freq.shape).copy()
        abcd = np.zeros((freq.size, 2, 2), dtype=complex)
        abcd[:, 0, 0] = 1.0
        abcd[:, 0, 1] = z
        abcd[:, 1, 0] = 0.0
        abcd[:, 1, 1] = 1.0
        return TwoPortNetwork(freq, abcd)

    @staticmethod
    def from_shunt_admittance(
        frequencies: Iterable[float], admittance: np.ndarray | complex
    ) -> "TwoPortNetwork":
        """A shunt element:  [[1, 0], [Y, 1]]."""
        freq = _as_frequency_array(frequencies)
        y = np.broadcast_to(np.asarray(admittance, dtype=complex), freq.shape).copy()
        abcd = np.zeros((freq.size, 2, 2), dtype=complex)
        abcd[:, 0, 0] = 1.0
        abcd[:, 0, 1] = 0.0
        abcd[:, 1, 0] = y
        abcd[:, 1, 1] = 1.0
        return TwoPortNetwork(freq, abcd)

    @staticmethod
    def from_transmission_line(
        frequencies: Iterable[float],
        gamma: np.ndarray,
        z0: np.ndarray | complex,
        length_m: float,
    ) -> "TwoPortNetwork":
        """A transmission-line section of physical length ``length_m``.

        ``gamma`` is the complex propagation constant per metre and ``z0`` the
        characteristic impedance, both per frequency point.
        """
        freq = _as_frequency_array(frequencies)
        if length_m < 0:
            raise RFError(f"line length must be non-negative, got {length_m}")
        gamma = np.broadcast_to(np.asarray(gamma, dtype=complex), freq.shape)
        z0 = np.broadcast_to(np.asarray(z0, dtype=complex), freq.shape)
        gl = gamma * length_m
        cosh = np.cosh(gl)
        sinh = np.sinh(gl)
        abcd = np.zeros((freq.size, 2, 2), dtype=complex)
        abcd[:, 0, 0] = cosh
        abcd[:, 0, 1] = z0 * sinh
        abcd[:, 1, 0] = sinh / z0
        abcd[:, 1, 1] = cosh
        return TwoPortNetwork(freq, abcd)

    @staticmethod
    def from_voltage_controlled_source(
        frequencies: Iterable[float],
        gm_siemens: np.ndarray | float,
        input_admittance: np.ndarray | complex,
        output_admittance: np.ndarray | complex,
    ) -> "TwoPortNetwork":
        """A unilateral transconductance stage (simple FET small-signal model).

        The Y-matrix is ``[[Y_in, 0], [gm, Y_out]]``; converted to ABCD.  Used
        by the amplifier models: the stage inverts and amplifies with gain
        ``-gm / Y_out`` when unloaded.
        """
        freq = _as_frequency_array(frequencies)
        gm = np.broadcast_to(np.asarray(gm_siemens, dtype=complex), freq.shape)
        y_in = np.broadcast_to(np.asarray(input_admittance, dtype=complex), freq.shape)
        y_out = np.broadcast_to(np.asarray(output_admittance, dtype=complex), freq.shape)
        y21 = gm
        y11, y12, y22 = y_in, np.zeros_like(gm), y_out
        # Y to ABCD (y21 must be non-zero, which gm guarantees).
        if np.any(np.abs(y21) < 1e-18):
            raise RFError("transconductance must be non-zero for a gain stage")
        abcd = np.zeros((freq.size, 2, 2), dtype=complex)
        abcd[:, 0, 0] = -y22 / y21
        abcd[:, 0, 1] = -1.0 / y21
        abcd[:, 1, 0] = -(y11 * y22 - y12 * y21) / y21
        abcd[:, 1, 1] = -y11 / y21
        return TwoPortNetwork(freq, abcd)

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #

    def cascade(self, other: "TwoPortNetwork") -> "TwoPortNetwork":
        """Cascade ``self`` followed by ``other`` (ABCD matrix product)."""
        self._check_compatible(other)
        return TwoPortNetwork(self.frequencies, np.matmul(self.abcd, other.abcd))

    def __matmul__(self, other: "TwoPortNetwork") -> "TwoPortNetwork":
        return self.cascade(other)

    @staticmethod
    def chain(networks: Sequence["TwoPortNetwork"]) -> "TwoPortNetwork":
        """Cascade a sequence of networks in order."""
        if not networks:
            raise RFError("cannot chain an empty sequence of networks")
        result = networks[0]
        for network in networks[1:]:
            result = result.cascade(network)
        return result

    def _check_compatible(self, other: "TwoPortNetwork") -> None:
        if self.frequencies.shape != other.frequencies.shape or not np.allclose(
            self.frequencies, other.frequencies
        ):
            raise RFError("cannot combine networks defined on different frequency grids")

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_sparameters(self, z0: float = 50.0) -> SParameters:
        """Convert to S-parameters against a real reference impedance."""
        if z0 <= 0:
            raise RFError(f"reference impedance must be positive, got {z0}")
        a = self.abcd[:, 0, 0]
        b = self.abcd[:, 0, 1]
        c = self.abcd[:, 1, 0]
        d = self.abcd[:, 1, 1]
        denom = a + b / z0 + c * z0 + d
        if np.any(np.abs(denom) < 1e-30):
            raise RFError("singular ABCD matrix: cannot convert to S-parameters")
        s11 = (a + b / z0 - c * z0 - d) / denom
        s12 = 2.0 * (a * d - b * c) / denom
        s21 = 2.0 / denom
        s22 = (-a + b / z0 - c * z0 + d) / denom
        return SParameters(self.frequencies, s11, s12, s21, s22, z0)


def open_stub_admittance(
    gamma: np.ndarray, z0: np.ndarray | complex, length_m: float
) -> np.ndarray:
    """Input admittance of an open-circuited stub of the given length."""
    if length_m < 0:
        raise RFError(f"stub length must be non-negative, got {length_m}")
    z0 = np.asarray(z0, dtype=complex)
    return np.tanh(np.asarray(gamma, dtype=complex) * length_m) / z0
