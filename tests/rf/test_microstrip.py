"""Unit tests for the thin-film microstrip electrical model."""

import math

import numpy as np
import pytest

from repro.errors import RFError
from repro.rf import MicrostripLine
from repro.tech import CMOS65, CMOS90


@pytest.fixture
def line():
    return MicrostripLine.from_technology(CMOS90)


class TestStaticParameters:
    def test_validation(self):
        with pytest.raises(RFError):
            MicrostripLine(width=0.0, height=5.0)
        with pytest.raises(RFError):
            MicrostripLine(width=10.0, height=5.0, eps_r=0.5)
        with pytest.raises(RFError):
            MicrostripLine(width=10.0, height=5.0, loss_tangent=-0.1)

    def test_effective_permittivity_between_one_and_substrate(self, line):
        assert 1.0 < line.effective_permittivity < line.eps_r

    def test_characteristic_impedance_near_fifty_ohm(self, line):
        # The paper's technology (w = 10 um, t = 5 um over SiO2) is a
        # nominally 50-ohm microstrip.
        assert 40.0 < line.characteristic_impedance < 60.0

    def test_wider_line_has_lower_impedance(self):
        narrow = MicrostripLine(width=5.0, height=5.0)
        wide = MicrostripLine(width=20.0, height=5.0)
        assert wide.characteristic_impedance < narrow.characteristic_impedance

    def test_from_technology_width_override(self):
        default = MicrostripLine.from_technology(CMOS90)
        wide = MicrostripLine.from_technology(CMOS90, width=20.0)
        assert wide.width == 20.0
        assert default.width == CMOS90.microstrip_width

    def test_different_technologies_give_different_lines(self):
        assert (
            MicrostripLine.from_technology(CMOS65).height
            != MicrostripLine.from_technology(CMOS90).height
        )


class TestPropagation:
    def test_phase_constant_scales_with_frequency(self, line):
        beta = line.phase_constant(np.array([30e9, 60e9, 90e9]))
        assert beta[1] == pytest.approx(2.0 * beta[0], rel=1e-9)
        assert beta[2] == pytest.approx(3.0 * beta[0], rel=1e-9)

    def test_losses_increase_with_frequency(self, line):
        alpha = line.attenuation(np.array([30e9, 94e9]))
        assert alpha[1] > alpha[0]
        assert np.all(alpha > 0)

    def test_propagation_constant_is_complex(self, line):
        gamma = line.propagation_constant(np.array([60e9]))
        assert gamma[0].real > 0
        assert gamma[0].imag > 0

    def test_invalid_frequency_rejected(self, line):
        with pytest.raises(RFError):
            line.phase_constant(np.array([0.0]))

    def test_guided_wavelength_at_94ghz(self, line):
        wavelength_um = line.guided_wavelength(94e9) * 1e6
        # sqrt(eps_eff) ~ 1.75, so lambda_g ~ 3.19 mm / 1.75 ~ 1.8 mm.
        assert 1500.0 < wavelength_um < 2200.0

    def test_loss_db_per_mm_is_reasonable(self, line):
        alpha = line.attenuation(np.array([94e9]))[0]  # Np/m
        loss = 20.0 * math.log10(math.e) * alpha * 1.0e-3
        # Thin-film microstrip at W-band: on the order of a dB per mm.
        assert 0.2 < loss < 5.0
