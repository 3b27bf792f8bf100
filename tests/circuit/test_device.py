"""Unit tests for devices, pins and rotations."""

import pytest

from repro.errors import NetlistError
from repro.circuit import (
    Device,
    DeviceType,
    Pin,
    Rotation,
    make_capacitor,
    make_dc_pad,
    make_resistor,
    make_rf_pad,
    make_transistor,
)
from repro.geometry import Point


class TestPin:
    def test_offset_rotation(self):
        pin = Pin("G", -10.0, 0.0)
        assert pin.offset(Rotation.R0) == Point(-10.0, 0.0)
        assert pin.offset(Rotation.R90) == Point(0.0, -10.0)
        assert pin.offset(Rotation.R180) == Point(10.0, 0.0)
        assert pin.offset(Rotation.R270) == Point(0.0, 10.0)

    def test_empty_name_rejected(self):
        with pytest.raises(NetlistError):
            Pin("", 0.0, 0.0)


class TestRotation:
    def test_from_degrees(self):
        assert Rotation.from_degrees(270) is Rotation.R270
        assert Rotation.from_degrees(360) is Rotation.R0

    def test_invalid_degrees(self):
        with pytest.raises(NetlistError):
            Rotation.from_degrees(45)


class TestDevice:
    def test_factory_transistor(self):
        device = make_transistor("M1")
        assert device.device_type is DeviceType.TRANSISTOR
        assert set(device.pins) == {"D", "G", "S"}
        assert not device.is_pad

    def test_factory_pads_are_pads(self):
        assert make_rf_pad("P").is_pad
        assert make_dc_pad("B").is_pad
        assert not make_rf_pad("P").rotatable

    def test_negative_dimensions_rejected(self):
        with pytest.raises(NetlistError):
            Device("bad", DeviceType.GENERIC, -1.0, 5.0)

    def test_pin_outside_outline_rejected(self):
        with pytest.raises(NetlistError):
            Device(
                "bad",
                DeviceType.GENERIC,
                10.0,
                10.0,
                pins={"A": Pin("A", 20.0, 0.0)},
            )

    def test_pin_key_name_mismatch_rejected(self):
        with pytest.raises(NetlistError):
            Device(
                "bad",
                DeviceType.GENERIC,
                10.0,
                10.0,
                pins={"A": Pin("B", 0.0, 0.0)},
            )

    def test_unknown_pin_lookup(self):
        with pytest.raises(NetlistError):
            make_transistor("M1").pin("Z")

    def test_dimensions_swap_under_rotation(self):
        device = make_transistor("M1", width=40.0, height=30.0)
        assert device.dimensions(Rotation.R0) == (40.0, 30.0)
        assert device.dimensions(Rotation.R90) == (30.0, 40.0)

    def test_pin_position_under_rotation(self):
        device = make_transistor("M1", width=40.0, height=30.0)
        center = Point(100.0, 100.0)
        gate_r0 = device.pin_position("G", center, Rotation.R0)
        gate_r180 = device.pin_position("G", center, Rotation.R180)
        assert gate_r0 == Point(80.0, 100.0)
        assert gate_r180 == Point(120.0, 100.0)

    def test_outline(self):
        device = make_capacitor("C1", width=30.0, height=20.0)
        outline = device.outline(Point(50.0, 50.0))
        assert outline.as_tuple() == (35.0, 40.0, 65.0, 60.0)

    def test_equivalent_pins(self):
        capacitor = make_capacitor("C1")
        assert capacitor.equivalent_pins("P1") == ["P1", "P2"]
        transistor = make_transistor("M1")
        assert transistor.equivalent_pins("G") == ["G"]

    def test_area(self):
        device = make_resistor("R1", width=20.0, height=10.0)
        assert device.area == pytest.approx(200.0)

    def test_serialisation_round_trip(self):
        for device in (
            make_transistor("M1"),
            make_capacitor("C1"),
            make_rf_pad("P1"),
            make_resistor("R1"),
        ):
            rebuilt = Device.from_dict(device.as_dict())
            assert rebuilt == device

    def test_malformed_record_rejected(self):
        with pytest.raises(NetlistError):
            Device.from_dict({"name": "x"})
