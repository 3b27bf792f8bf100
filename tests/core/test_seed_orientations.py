"""Unit tests of the L-orientation choice behind the Phase-1 warm start."""

from repro.circuit import LayoutArea, MicrostripNet, Netlist, Terminal, make_transistor
from repro.circuits import get_circuit
from repro.core.config import PILPConfig
from repro.core.phase1 import phase1_seeds
from repro.core.seed import choose_l_orientations, seed_crossings
from repro.geometry import Point
from repro.tech import CMOS90
from tests.conftest import build_tiny_netlist


def _three_nets():
    """Three nets whose all-horizontal-first routes cross once.

    ``a`` crosses ``b`` whenever ``a`` runs horizontal-first, and crosses
    ``c`` when ``a`` runs vertical-first and ``c`` horizontal-first.  No
    single flip lowers the count; flipping ``a`` and ``c`` together clears
    it.
    """
    terminals = {
        "a": (Point(400.0, 400.0), Point(0.0, 100.0)),
        "b": (Point(200.0, 500.0), Point(100.0, 300.0)),
        "c": (Point(500.0, 200.0), Point(300.0, 0.0)),
    }
    devices, nets, seeds = [], [], {}
    for name, (start, end) in terminals.items():
        first, second = f"{name}1", f"{name}2"
        devices += [make_transistor(first), make_transistor(second)]
        nets.append(
            MicrostripNet(name, Terminal(first, "D"), Terminal(second, "G"), target_length=700.0)
        )
        seeds[first], seeds[second] = start, end
    netlist = Netlist(
        "three",
        devices,
        nets,
        LayoutArea(600.0, 600.0),
        technology=CMOS90,
        operating_frequency_ghz=60.0,
    )
    return netlist, seeds


def test_a_crossing_free_seed_keeps_every_net_horizontal_first():
    config = PILPConfig.fast()
    for netlist in (build_tiny_netlist(), get_circuit("lna94", "reduced").netlist):
        seeds = phase1_seeds(netlist, config)
        assert seed_crossings(netlist, seeds) == 0
        chosen = choose_l_orientations(netlist, seeds)
        assert set(chosen) == {net.name for net in netlist.microstrips}
        assert not any(chosen.values())


def test_a_pair_flip_removes_a_crossing_no_single_flip_can():
    netlist, seeds = _three_nets()
    assert seed_crossings(netlist, seeds) == 1
    for name in ("a", "b", "c"):
        assert seed_crossings(netlist, seeds, {name: True}) == 1
    chosen = choose_l_orientations(netlist, seeds)
    assert chosen == {"a": True, "b": False, "c": True}
    assert seed_crossings(netlist, seeds, chosen) == 0


def test_the_same_input_gives_the_same_choice():
    config = PILPConfig.fast()
    netlist = get_circuit("buffer60", "reduced").netlist
    first, second = (
        choose_l_orientations(netlist, phase1_seeds(netlist, config)) for _ in range(2)
    )
    assert first == second
    assert any(first.values())
    assert choose_l_orientations(*_three_nets()) == choose_l_orientations(*_three_nets())
