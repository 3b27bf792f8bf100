"""Electrical model of a thin-film microstrip line.

The paper's circuits use thin-film microstrips (Figure 1(a)): the line on the
top metal, the ground plane on Metal 1, separated by ``t`` of SiO2.  This
module provides the quasi-static closed-form model used throughout the RF
substrate:

* effective permittivity and characteristic impedance from the
  Hammerstad-Jensen formulas,
* conductor loss from the skin effect, dielectric loss from the loss
  tangent,
* the complex propagation constant ``gamma(f) = alpha + j beta``.

Absolute accuracy against a full-wave EM solver is not the goal (and not
claimed); what matters for reproducing Figure 11 is that the model responds
correctly to the layout quantities the optimiser controls — line length and
bend count.

All cross-section parameters (``eps_eff``, ``Z0``) are computed once per
line and cached, and the frequency-dependent quantities (``alpha``,
``beta``, ``gamma``) are memoised per frequency grid: amplifier scoring
evaluates the same handful of cross-sections over the same sweep for every
chain element of every layout candidate, so without the cache the identical
transcendental math re-runs hundreds of times per Figure-11 sweep.  The
cached arrays are shared — treat them as read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.errors import RFError
from repro.tech.technology import Technology
from repro.units import ETA_0, MU_0, SPEED_OF_LIGHT, microns_to_meters


@dataclass(frozen=True)
class MicrostripLine:
    """Quasi-static model of a microstrip cross-section.

    Attributes
    ----------
    width:
        Line width in micrometres.
    height:
        Dielectric thickness between line and ground plane, micrometres.
    eps_r:
        Relative permittivity of the dielectric.
    metal_conductivity:
        Conductor conductivity in S/m.
    metal_thickness:
        Conductor thickness in micrometres.
    loss_tangent:
        Dielectric loss tangent.
    """

    width: float
    height: float
    eps_r: float = 4.0
    metal_conductivity: float = 3.0e7
    metal_thickness: float = 3.0
    loss_tangent: float = 0.004

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise RFError("microstrip width and height must be positive")
        if self.eps_r < 1.0:
            raise RFError("relative permittivity must be >= 1")
        if self.metal_conductivity <= 0 or self.metal_thickness <= 0:
            raise RFError("metal parameters must be positive")
        if self.loss_tangent < 0:
            raise RFError("loss tangent must be non-negative")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_technology(technology: Technology, width: float | None = None) -> "MicrostripLine":
        """Build the line model from a :class:`Technology` description."""
        return MicrostripLine(
            width=width if width is not None else technology.microstrip_width,
            height=technology.ground_plane_distance,
            eps_r=technology.substrate_permittivity,
            metal_conductivity=technology.metal_conductivity,
            metal_thickness=technology.metal_thickness,
            loss_tangent=technology.loss_tangent,
        )

    # ------------------------------------------------------------------ #
    # quasi-static parameters (Hammerstad-Jensen)
    # ------------------------------------------------------------------ #

    @property
    def width_to_height(self) -> float:
        return self.width / self.height

    @cached_property
    def effective_permittivity(self) -> float:
        """Quasi-static effective permittivity ε_eff (computed once)."""
        u = self.width_to_height
        a = 1.0 + (1.0 / 49.0) * math.log(
            (u**4 + (u / 52.0) ** 2) / (u**4 + 0.432)
        ) + (1.0 / 18.7) * math.log(1.0 + (u / 18.1) ** 3)
        b = 0.564 * ((self.eps_r - 0.9) / (self.eps_r + 3.0)) ** 0.053
        return (self.eps_r + 1.0) / 2.0 + (self.eps_r - 1.0) / 2.0 * (
            1.0 + 10.0 / u
        ) ** (-a * b)

    @cached_property
    def characteristic_impedance(self) -> float:
        """Characteristic impedance Z0 in Ohms (computed once)."""
        u = self.width_to_height
        f_u = 6.0 + (2.0 * math.pi - 6.0) * math.exp(-((30.666 / u) ** 0.7528))
        z0_air = ETA_0 / (2.0 * math.pi) * math.log(
            f_u / u + math.sqrt(1.0 + (2.0 / u) ** 2)
        )
        return z0_air / math.sqrt(self.effective_permittivity)

    # ------------------------------------------------------------------ #
    # frequency-dependent propagation (memoised per frequency grid)
    # ------------------------------------------------------------------ #

    def _as_frequencies(self, frequencies: Iterable[float]) -> np.ndarray:
        freq = np.asarray(
            list(frequencies)
            if not isinstance(frequencies, np.ndarray)
            else frequencies,
            dtype=float,
        )
        if np.any(freq <= 0):
            raise RFError("frequencies must be positive")
        return freq

    def _freq_cache(self) -> Dict[Tuple[str, bytes], np.ndarray]:
        # The instance __dict__ is writable even on a frozen dataclass, which
        # is exactly how cached_property stores its result too.
        return self.__dict__.setdefault("_freq_memo", {})

    def _memoised(self, kind: str, freq: np.ndarray, compute) -> np.ndarray:
        cache = self._freq_cache()
        key = (kind, freq.tobytes())
        hit = cache.get(key)
        if hit is None:
            hit = compute(freq)
            hit.setflags(write=False)
            cache[key] = hit
        return hit

    def phase_constant(self, frequencies: Iterable[float]) -> np.ndarray:
        """β(f) in radians per metre."""
        freq = self._as_frequencies(frequencies)
        return self._memoised(
            "beta",
            freq,
            lambda f: 2.0
            * np.pi
            * f
            * math.sqrt(self.effective_permittivity)
            / SPEED_OF_LIGHT,
        )

    def conductor_loss(self, frequencies: Iterable[float]) -> np.ndarray:
        """α_c(f) in Nepers per metre (skin-effect surface resistance model)."""
        freq = self._as_frequencies(frequencies)

        def compute(f: np.ndarray) -> np.ndarray:
            surface_resistance = np.sqrt(np.pi * f * MU_0 / self.metal_conductivity)
            width_m = microns_to_meters(self.width)
            return surface_resistance / (self.characteristic_impedance * width_m)

        return self._memoised("alpha_c", freq, compute)

    def dielectric_loss(self, frequencies: Iterable[float]) -> np.ndarray:
        """α_d(f) in Nepers per metre."""
        freq = self._as_frequencies(frequencies)

        def compute(f: np.ndarray) -> np.ndarray:
            eps_eff = self.effective_permittivity
            eps_r = self.eps_r
            k0 = 2.0 * np.pi * f / SPEED_OF_LIGHT
            filling = (
                (eps_r * (eps_eff - 1.0)) / (math.sqrt(eps_eff) * (eps_r - 1.0))
                if eps_r > 1.0
                else math.sqrt(eps_eff)
            )
            return k0 * filling * self.loss_tangent / 2.0

        return self._memoised("alpha_d", freq, compute)

    def attenuation(self, frequencies: Iterable[float]) -> np.ndarray:
        """Total attenuation α(f) = α_c + α_d in Nepers per metre."""
        freq = self._as_frequencies(frequencies)
        return self._memoised(
            "alpha",
            freq,
            lambda f: self.conductor_loss(f) + self.dielectric_loss(f),
        )

    def propagation_constant(self, frequencies: Iterable[float]) -> np.ndarray:
        """Complex γ(f) = α + jβ per metre."""
        freq = self._as_frequencies(frequencies)
        return self._memoised(
            "gamma",
            freq,
            lambda f: self.attenuation(f) + 1j * self.phase_constant(f),
        )

    # ------------------------------------------------------------------ #
    # derived helpers
    # ------------------------------------------------------------------ #

    def guided_wavelength(self, frequency_hz: float) -> float:
        """Guided wavelength at ``frequency_hz`` in metres."""
        if frequency_hz <= 0:
            raise RFError("frequency must be positive")
        return SPEED_OF_LIGHT / (frequency_hz * math.sqrt(self.effective_permittivity))
