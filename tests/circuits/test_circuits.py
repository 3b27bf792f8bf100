"""Tests of the reconstructed benchmark circuits and their registry."""

import pytest

from repro.errors import ExperimentError, NetlistError
from repro.circuit import Severity, validate_netlist
from repro.circuit.netlist import LayoutArea
from repro.circuits import (
    AmplifierSpec,
    area_settings,
    build_amplifier_circuit,
    circuit_names,
    get_circuit,
    pilp_area,
)
from repro.experiments.paper_data import PAPER_CIRCUIT_SIZES, PAPER_TABLE1


class TestPublishedCounts:
    @pytest.mark.parametrize("name", ["lna94", "buffer60", "lna60"])
    def test_full_variants_match_table1_counts(self, name):
        circuit = get_circuit(name, "full")
        microstrips, devices = PAPER_CIRCUIT_SIZES[name]
        assert circuit.netlist.num_microstrips == microstrips
        assert circuit.netlist.num_devices == devices

    @pytest.mark.parametrize("name", ["lna94", "buffer60", "lna60"])
    def test_full_variants_use_published_area(self, name):
        circuit = get_circuit(name, "full")
        published = PAPER_TABLE1[(name, 0)].area
        assert circuit.netlist.area.as_tuple() == published

    @pytest.mark.parametrize("name", ["lna94", "buffer60", "lna60"])
    def test_no_validation_errors(self, name):
        for variant in ("full", "reduced"):
            issues = validate_netlist(get_circuit(name, variant).netlist)
            errors = [issue for issue in issues if issue.severity is Severity.ERROR]
            assert not errors, errors

    @pytest.mark.parametrize("name", ["lna94", "buffer60", "lna60"])
    def test_reduced_variants_are_smaller(self, name):
        full = get_circuit(name, "full")
        reduced = get_circuit(name, "reduced")
        assert reduced.netlist.num_microstrips < full.netlist.num_microstrips
        assert reduced.netlist.num_devices < full.netlist.num_devices

    @pytest.mark.parametrize("name", ["lna94", "buffer60", "lna60"])
    def test_rf_chain_is_consistent(self, name):
        circuit = get_circuit(name, "full")
        for element in circuit.chain.elements:
            if element.kind in ("line", "stub"):
                assert element.name in circuit.netlist.microstrip_names
        for device_name in circuit.chain.device_names():
            assert circuit.netlist.has_device(device_name)

    def test_circuits_have_pads(self):
        for name in circuit_names():
            circuit = get_circuit(name, "full")
            assert len(circuit.netlist.pads()) >= 2


class TestRegistry:
    def test_circuit_names_order(self):
        assert circuit_names() == ["lna94", "buffer60", "lna60"]

    def test_unknown_circuit_rejected(self):
        with pytest.raises(ExperimentError):
            get_circuit("oscillator77")
        with pytest.raises(ExperimentError):
            area_settings("oscillator77")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ExperimentError):
            get_circuit("lna94", "medium")

    def test_default_variant_respects_environment(self, monkeypatch):
        monkeypatch.delenv("RFIC_FULL_SIZE", raising=False)
        assert get_circuit("buffer60").netlist.name == "buffer60_reduced"
        monkeypatch.setenv("RFIC_FULL_SIZE", "1")
        assert get_circuit("buffer60").netlist.name == "buffer60"

    def test_area_settings_full(self):
        areas = area_settings("lna94", "full")
        assert len(areas) == 2
        assert areas[0].as_tuple() == (890.0, 615.0)
        assert areas[1].as_tuple() == (845.0, 580.0)

    def test_area_settings_reduced_shrink(self):
        areas = area_settings("lna94", "reduced")
        assert areas[1].area < areas[0].area

    def test_pilp_area_is_not_larger_than_manual(self):
        for name in ("lna94", "buffer60"):
            manual = area_settings(name, "full")[0]
            generated = pilp_area(name, "full")
            assert generated.area <= manual.area

    def test_area_override(self):
        custom = LayoutArea(700.0, 500.0)
        circuit = get_circuit("lna94", "full", area=custom)
        assert circuit.netlist.area.as_tuple() == (700.0, 500.0)


class TestGenerator:
    def test_counts_too_small_rejected(self):
        spec = AmplifierSpec(
            name="impossible",
            num_stages=3,
            operating_frequency_ghz=60.0,
            area=LayoutArea(600.0, 600.0),
            num_microstrips=3,
            num_devices=4,
        )
        with pytest.raises(NetlistError):
            build_amplifier_circuit(spec)

    def test_generated_lengths_fit_area_budget(self):
        circuit = get_circuit("lna94", "full")
        assert circuit.netlist.area_utilisation() < 0.6

    def test_stage_count_reflected_in_devices(self):
        circuit = get_circuit("lna60", "full")
        transistors = [
            device
            for device in circuit.netlist.devices
            if device.device_type.value == "transistor"
        ]
        assert len(transistors) == circuit.spec.num_stages

    def test_custom_spec_builds(self):
        spec = AmplifierSpec(
            name="custom",
            num_stages=1,
            operating_frequency_ghz=77.0,
            area=LayoutArea(500.0, 400.0),
            num_microstrips=6,
            num_devices=8,
        )
        circuit = build_amplifier_circuit(spec)
        assert circuit.netlist.num_microstrips == 6
        assert circuit.netlist.num_devices == 8
        assert circuit.netlist.operating_frequency_ghz == 77.0


class TestGeneratorSeedThreading:
    def test_unseeded_build_is_reproducible(self):
        first = get_circuit("lna94", "reduced").netlist
        second = get_circuit("lna94", "reduced").netlist
        assert [net.target_length for net in first.microstrips] == [
            net.target_length for net in second.microstrips
        ]

    def test_seed_jitters_lengths_deterministically(self):
        base = get_circuit("lna94", "reduced").netlist
        seeded_a = get_circuit("lna94", "reduced", seed=5).netlist
        seeded_b = get_circuit("lna94", "reduced", seed=5).netlist
        other = get_circuit("lna94", "reduced", seed=6).netlist
        lengths = lambda netlist: [net.target_length for net in netlist.microstrips]
        assert lengths(seeded_a) == lengths(seeded_b)
        assert lengths(seeded_a) != lengths(base)
        assert lengths(seeded_a) != lengths(other)

    def test_seed_preserves_published_counts(self):
        base = get_circuit("buffer60", "full")
        seeded = get_circuit("buffer60", "full", seed=3)
        assert seeded.netlist.num_microstrips == base.netlist.num_microstrips
        assert seeded.netlist.num_devices == base.netlist.num_devices

    def test_seed_jitter_is_bounded(self):
        base = get_circuit("lna60", "reduced").netlist
        seeded = get_circuit("lna60", "reduced", seed=9).netlist
        for reference, jittered in zip(base.microstrips, seeded.microstrips):
            assert jittered.name == reference.name
            ratio = jittered.target_length / reference.target_length
            assert 0.90 < ratio < 1.10

    def test_spec_seed_equivalent_to_builder_seed(self):
        from dataclasses import replace

        from repro.circuits import lna94_spec

        spec = replace(lna94_spec(), seed=5)
        via_spec = build_amplifier_circuit(spec).netlist
        via_kwarg = build_amplifier_circuit(lna94_spec(), seed=5).netlist
        assert [net.target_length for net in via_spec.microstrips] == [
            net.target_length for net in via_kwarg.microstrips
        ]
