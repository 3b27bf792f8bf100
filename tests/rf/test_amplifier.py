"""Unit tests for the amplifier assembly from netlists and layouts."""

import numpy as np
import pytest

from repro.errors import RFError
from repro.rf import (
    AmplifierModel,
    ChainElement,
    SignalChain,
    default_frequency_sweep,
)
from repro.circuits import get_circuit


@pytest.fixture(scope="module")
def benchmark_circuit():
    return get_circuit("buffer60", "reduced")


@pytest.fixture(scope="module")
def model(benchmark_circuit):
    return AmplifierModel(benchmark_circuit.netlist, benchmark_circuit.chain)


@pytest.fixture(scope="module")
def frequencies(benchmark_circuit):
    return default_frequency_sweep(benchmark_circuit.netlist.operating_frequency_ghz, points=41)


class TestSignalChain:
    def test_shorthand_construction(self):
        chain = SignalChain.from_shorthand("demo", [("line", "ms1"), ("device", "M1")])
        assert [element.name for element in chain.elements if element.kind == "line"] == ["ms1"]
        assert chain.device_names() == ["M1"]

    def test_empty_chain_rejected(self):
        with pytest.raises(RFError):
            SignalChain("demo", [])

    def test_unknown_element_kind_rejected(self):
        with pytest.raises(RFError):
            ChainElement("wire", "ms1")

    def test_benchmark_chain_references_exist(self, benchmark_circuit):
        netlist = benchmark_circuit.netlist
        for element in benchmark_circuit.chain.elements:
            if element.kind in ("line", "stub"):
                assert element.name in netlist.microstrip_names
        for device_name in benchmark_circuit.chain.device_names():
            assert netlist.has_device(device_name)


class TestAmplifierModel:
    def test_unknown_reference_rejected(self, benchmark_circuit):
        bad_chain = SignalChain.from_shorthand("bad", [("line", "does-not-exist")])
        with pytest.raises(RFError):
            AmplifierModel(benchmark_circuit.netlist, bad_chain)

    def test_invalid_reference_impedance(self, benchmark_circuit):
        with pytest.raises(RFError):
            AmplifierModel(benchmark_circuit.netlist, benchmark_circuit.chain, reference_impedance=0.0)

    def test_designed_response_has_gain_at_f0(self, model, benchmark_circuit, frequencies):
        sparams = model.simulate(frequencies)
        f0 = benchmark_circuit.netlist.operating_frequency_ghz * 1e9
        assert sparams.gain_db(f0) > 0.0

    def test_simulation_without_layout_uses_target_lengths(self, model, benchmark_circuit):
        first = next(e.name for e in benchmark_circuit.chain.elements if e.kind in ("line", "stub"))
        length, bends = model._net_geometry(first, None)
        net = benchmark_circuit.netlist.microstrip(first)
        assert length == pytest.approx(net.target_length)
        assert bends == 0

    def test_extra_bends_reduce_gain(self, model, benchmark_circuit, frequencies):
        """Bends perturb the response only slightly (sub-dB)."""
        from repro.geometry import ManhattanPath, Point
        from repro.layout import Layout, RoutedMicrostrip

        netlist = benchmark_circuit.netlist
        f0 = netlist.operating_frequency_ghz * 1e9

        def layout_with_bends(bends: int) -> Layout:
            layout = Layout(netlist)
            for net in netlist.microstrips:
                target = net.target_length
                if bends == 0:
                    path = ManhattanPath([Point(0, 0), Point(target, 0)], width=10.0)
                else:
                    # A staircase with the requested number of corners and the
                    # same total geometric length.
                    step = target / (bends + 1)
                    points = [Point(0, 0)]
                    for index in range(bends):
                        previous = points[-1]
                        if index % 2 == 0:
                            points.append(Point(previous.x + step, previous.y))
                        else:
                            points.append(Point(previous.x, previous.y + step))
                    last = points[-1]
                    if bends % 2 == 0:
                        points.append(Point(last.x + step, last.y))
                    else:
                        points.append(Point(last.x, last.y + step))
                    path = ManhattanPath(points, width=10.0)
                layout.set_route(RoutedMicrostrip(net.name, path))
            return layout

        straight = model.simulate(frequencies, layout_with_bends(0)).gain_db(f0)
        bent = model.simulate(frequencies, layout_with_bends(4)).gain_db(f0)
        # Bend discontinuities are small reactive perturbations: they shift
        # the response by well under a dB (the reactive part can nudge the
        # matching either way, so only the magnitude of the change is a
        # robust invariant here; the monotone loss of the bend two-port
        # itself is asserted in the discontinuity tests).
        assert abs(bent - straight) < 1.0


class TestFrequencySweep:
    def test_sweep_centred_on_f0(self):
        sweep = default_frequency_sweep(94.0, points=11)
        assert len(sweep) == 11
        assert sweep[0] < 94e9 < sweep[-1]
        assert np.isclose(np.median(sweep), 94e9)

    def test_invalid_sweep_parameters(self):
        with pytest.raises(RFError):
            default_frequency_sweep(0.0)
        with pytest.raises(RFError):
            default_frequency_sweep(60.0, points=1)
