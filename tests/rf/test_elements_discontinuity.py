"""Unit tests for element factories and the bend-discontinuity / δ models."""

import numpy as np
import pytest

from repro.errors import RFError
from repro.rf import (
    MicrostripLine,
    bend_two_port,
    delta_versus_frequency,
    extract_delta,
    microstrip_section,
    mitred_bend,
    open_stub,
    pad_shunt,
    right_angle_bend,
    series_capacitor,
    series_inductor,
    series_resistor,
    shunt_capacitor,
    transistor_stage,
)
from repro.tech import CMOS90


@pytest.fixture
def line():
    return MicrostripLine.from_technology(CMOS90)


@pytest.fixture
def frequencies():
    return np.linspace(60e9, 120e9, 31)


class TestElements:
    def test_microstrip_section_attenuates_and_delays(self, line, frequencies):
        sparams = microstrip_section(line, 500.0, frequencies).to_sparameters()
        assert np.all(sparams.s21_db < 0.0)
        assert np.all(sparams.s21_db > -10.0)

    def test_longer_section_loses_more(self, line, frequencies):
        short = microstrip_section(line, 200.0, frequencies).to_sparameters()
        long = microstrip_section(line, 800.0, frequencies).to_sparameters()
        assert np.all(long.s21_db < short.s21_db)

    def test_zero_length_section_is_through(self, line, frequencies):
        sparams = microstrip_section(line, 0.0, frequencies).to_sparameters()
        assert np.allclose(sparams.s21_db, 0.0, atol=1e-9)

    def test_negative_length_rejected(self, line, frequencies):
        with pytest.raises(RFError):
            microstrip_section(line, -1.0, frequencies)

    def test_open_stub_loads_the_line(self, line, frequencies):
        sparams = open_stub(line, 400.0, frequencies).to_sparameters()
        assert np.all(sparams.s21_db <= 0.0)
        assert np.any(sparams.s21_db < -0.5)

    def test_series_capacitor_blocks_low_frequencies(self):
        frequencies = np.array([1e9, 100e9])
        sparams = series_capacitor(50e-15, frequencies).to_sparameters()
        assert sparams.s21_db[0] < sparams.s21_db[1]

    def test_shunt_capacitor_shorts_high_frequencies(self):
        frequencies = np.array([1e9, 100e9])
        sparams = shunt_capacitor(500e-15, frequencies).to_sparameters()
        assert sparams.s21_db[1] < sparams.s21_db[0]

    def test_series_inductor_and_resistor(self, frequencies):
        inductive = series_inductor(100e-12, frequencies).to_sparameters()
        resistive = series_resistor(25.0, frequencies).to_sparameters()
        assert np.all(inductive.s21_db < 0.0)
        assert np.allclose(
            resistive.s21_db, 20 * np.log10(2.0 / (2.0 + 0.5)), atol=1e-9
        )

    def test_invalid_component_values(self, frequencies):
        with pytest.raises(RFError):
            series_capacitor(0.0, frequencies)
        with pytest.raises(RFError):
            series_inductor(-1e-12, frequencies)
        with pytest.raises(RFError):
            series_resistor(-1.0, frequencies)

    def test_transistor_stage_gain_positive_at_mm_wave(self, frequencies):
        sparams = transistor_stage(frequencies).to_sparameters()
        assert np.all(sparams.s21_db > 0.0)

    def test_transistor_parameter_validation(self, frequencies):
        with pytest.raises(RFError):
            transistor_stage(frequencies, gm_siemens=-0.01)

    def test_pad_shunt_is_mild(self, frequencies):
        sparams = pad_shunt(frequencies).to_sparameters()
        assert np.all(sparams.s21_db > -1.0)


class TestBendModels:
    def test_mitred_bend_has_less_capacitance(self, line):
        square = right_angle_bend(line)
        chamfered = mitred_bend(line)
        assert chamfered.excess_capacitance < square.excess_capacitance
        assert chamfered.mitred and not square.mitred

    def test_invalid_mitre_fraction(self, line):
        with pytest.raises(RFError):
            mitred_bend(line, mitre_fraction=1.5)

    def test_bend_two_port_is_mostly_transparent(self, line, frequencies):
        sparams = bend_two_port(line, frequencies).to_sparameters()
        assert np.all(sparams.s21_db > -1.0)
        assert np.all(sparams.s21_db <= 0.0)

    def test_many_bends_add_loss(self, line, frequencies):
        one = bend_two_port(line, frequencies)
        many = one @ one @ one @ one
        assert np.all(
            many.to_sparameters().s21_db <= one.to_sparameters().s21_db
        )


class TestDeltaExtraction:
    def test_delta_is_a_few_micrometres_negative(self, line):
        delta = extract_delta(line, 94e9)
        # The smoothed bend is electrically shorter than the Manhattan corner
        # by a few micrometres — same sign and magnitude as the technology
        # default used by the layout model.
        assert -20.0 < delta < 0.0

    def test_delta_requires_positive_frequency(self, line):
        with pytest.raises(RFError):
            extract_delta(line, 0.0)

    def test_delta_weakly_frequency_dependent(self, line):
        deltas = delta_versus_frequency(line, [30e9, 60e9, 94e9])
        assert np.all(deltas < 0.0)
        assert np.ptp(deltas) < 5.0

    def test_unmitred_delta_differs(self, line):
        mitred = extract_delta(line, 94e9, mitred=True)
        square = extract_delta(line, 94e9, mitred=False)
        assert mitred != pytest.approx(square)
