"""Unit tests for two-port network algebra and S-parameters."""

import numpy as np
import pytest

from repro.errors import RFError
from repro.rf import TwoPortNetwork, open_stub_admittance


@pytest.fixture
def frequencies():
    return np.linspace(50e9, 70e9, 21)


class TestConstruction:
    def test_identity_is_transparent(self, frequencies):
        sparams = TwoPortNetwork.identity(frequencies).to_sparameters()
        assert np.allclose(np.abs(sparams.s21), 1.0)
        assert np.allclose(np.abs(sparams.s11), 0.0, atol=1e-12)

    def test_invalid_frequency_grid(self):
        with pytest.raises(RFError):
            TwoPortNetwork.identity([])
        with pytest.raises(RFError):
            TwoPortNetwork.identity([-1.0e9])

    def test_shape_mismatch_rejected(self, frequencies):
        with pytest.raises(RFError):
            TwoPortNetwork(frequencies, np.eye(2, dtype=complex))


class TestElementaryNetworks:
    def test_series_matched_resistor_s21(self, frequencies):
        # A series 50-ohm resistor between 50-ohm ports: S21 = 2/(2 + Z/Z0) = 2/3.
        network = TwoPortNetwork.from_series_impedance(frequencies, 50.0)
        sparams = network.to_sparameters(z0=50.0)
        assert np.allclose(np.abs(sparams.s21), 2.0 / 3.0, atol=1e-9)

    def test_shunt_admittance_s21(self, frequencies):
        # A shunt 50-ohm resistor: S21 = 2/(2 + Y*Z0) = 2/3.
        network = TwoPortNetwork.from_shunt_admittance(frequencies, 1.0 / 50.0)
        sparams = network.to_sparameters(z0=50.0)
        assert np.allclose(np.abs(sparams.s21), 2.0 / 3.0, atol=1e-9)

    def test_lossless_line_is_unitary(self, frequencies):
        gamma = 1j * 2.0 * np.pi * frequencies / 3.0e8
        network = TwoPortNetwork.from_transmission_line(frequencies, gamma, 50.0, 0.001)
        sparams = network.to_sparameters(z0=50.0)
        assert np.allclose(np.abs(sparams.s21), 1.0, atol=1e-9)
        assert np.allclose(np.abs(sparams.s11), 0.0, atol=1e-9)

    def test_matched_line_phase_matches_length(self, frequencies):
        gamma = 1j * 2.0 * np.pi * frequencies / 3.0e8
        length = 0.5e-3
        network = TwoPortNetwork.from_transmission_line(frequencies, gamma, 50.0, length)
        sparams = network.to_sparameters(z0=50.0)
        expected_phase = -2.0 * np.pi * frequencies / 3.0e8 * length
        assert np.allclose(np.angle(sparams.s21), expected_phase, atol=1e-9)

    def test_negative_length_rejected(self, frequencies):
        with pytest.raises(RFError):
            TwoPortNetwork.from_transmission_line(frequencies, 1j, 50.0, -0.1)

    def test_gain_stage_has_gain(self, frequencies):
        network = TwoPortNetwork.from_voltage_controlled_source(
            frequencies, gm_siemens=0.05, input_admittance=1e-4, output_admittance=1.0 / 200.0
        )
        sparams = network.to_sparameters()
        assert np.all(sparams.s21_db > 0.0)

    def test_zero_gm_rejected(self, frequencies):
        with pytest.raises(RFError):
            TwoPortNetwork.from_voltage_controlled_source(frequencies, 0.0, 1e-4, 1e-2)


class TestComposition:
    def test_cascade_of_identities(self, frequencies):
        identity = TwoPortNetwork.identity(frequencies)
        cascade = identity @ identity @ identity
        assert np.allclose(cascade.abcd, identity.abcd)

    def test_cascade_attenuations_multiply(self, frequencies):
        series = TwoPortNetwork.from_series_impedance(frequencies, 50.0)
        double = series @ series
        single_db = series.to_sparameters().s21_db
        double_db = double.to_sparameters().s21_db
        assert np.all(double_db < single_db)

    def test_chain_helper_matches_matmul(self, frequencies):
        series = TwoPortNetwork.from_series_impedance(frequencies, 25.0)
        shunt = TwoPortNetwork.from_shunt_admittance(frequencies, 0.01)
        assert np.allclose(
            TwoPortNetwork.chain([series, shunt]).abcd, (series @ shunt).abcd
        )

    def test_chain_of_nothing_rejected(self):
        with pytest.raises(RFError):
            TwoPortNetwork.chain([])

    def test_incompatible_grids_rejected(self, frequencies):
        other = TwoPortNetwork.identity(frequencies * 2.0)
        with pytest.raises(RFError):
            TwoPortNetwork.identity(frequencies) @ other


class TestSParameters:
    def test_db_views_and_interpolation(self, frequencies):
        sparams = TwoPortNetwork.from_series_impedance(frequencies, 50.0).to_sparameters()
        mid = 60e9
        values = sparams.at(mid)
        assert values["s21_db"] == pytest.approx(20 * np.log10(2.0 / 3.0), abs=1e-6)
        assert sparams.gain_db(mid) == pytest.approx(values["s21_db"])

    def test_out_of_range_frequency_rejected(self, frequencies):
        sparams = TwoPortNetwork.identity(frequencies).to_sparameters()
        with pytest.raises(RFError):
            sparams.at(500e9)

    def test_as_dict_keys(self, frequencies):
        data = TwoPortNetwork.identity(frequencies).to_sparameters().as_dict()
        assert set(data) >= {"frequencies_ghz", "s11_db", "s21_db", "s22_db"}

    def test_invalid_reference_impedance(self, frequencies):
        with pytest.raises(RFError):
            TwoPortNetwork.identity(frequencies).to_sparameters(z0=0.0)


class TestStubAdmittances:
    def test_quarter_wave_open_stub_is_short(self):
        frequency = 60e9
        beta = 2.0 * np.pi * frequency / 3.0e8
        quarter_wave = (3.0e8 / frequency) / 4.0
        admittance = open_stub_admittance(np.array([1j * beta]), 50.0, quarter_wave)
        assert np.abs(admittance[0]) > 1e3

    def test_negative_stub_length_rejected(self):
        with pytest.raises(RFError):
            open_stub_admittance(np.array([1j]), 50.0, -1.0)
