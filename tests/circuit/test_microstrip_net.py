"""Unit tests for microstrip nets and terminals."""

import pytest

from repro.errors import NetlistError
from repro.circuit import MicrostripNet, Terminal


def net(**overrides):
    values = dict(
        name="ms1",
        start=Terminal("A", "P1"),
        end=Terminal("B", "P2"),
        target_length=200.0,
    )
    values.update(overrides)
    return MicrostripNet(**values)


class TestTerminal:
    def test_as_tuple(self):
        assert Terminal("A", "P1").as_tuple() == ("A", "P1")

    def test_empty_names_rejected(self):
        with pytest.raises(NetlistError):
            Terminal("", "P1")
        with pytest.raises(NetlistError):
            Terminal("A", "")


class TestMicrostripNet:
    def test_basic_construction(self):
        microstrip = net()
        assert microstrip.terminals == (Terminal("A", "P1"), Terminal("B", "P2"))

    @pytest.mark.parametrize("length", [0.0, -5.0, float("nan")])
    def test_invalid_target_length(self, length):
        with pytest.raises(NetlistError):
            net(target_length=length)

    def test_invalid_width(self):
        with pytest.raises(NetlistError):
            net(width=0.0)

    def test_too_few_chain_points(self):
        with pytest.raises(NetlistError):
            net(max_chain_points=1)

    def test_self_loop_rejected(self):
        with pytest.raises(NetlistError):
            net(end=Terminal("A", "P1"))

    def test_connects(self):
        microstrip = net()
        assert microstrip.connects("A")
        assert microstrip.connects("B")
        assert not microstrip.connects("C")

    def test_serialisation_round_trip(self):
        original = net(width=12.0, max_chain_points=5, impedance_ohm=60.0)
        rebuilt = MicrostripNet.from_dict(original.as_dict())
        assert rebuilt == original

    def test_malformed_record(self):
        with pytest.raises(NetlistError):
            MicrostripNet.from_dict({"name": "x"})
