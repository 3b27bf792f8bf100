"""Unit tests for netlist JSON serialisation."""

import json

import pytest

from repro.errors import NetlistError
from repro.circuit import load_netlist, netlist_from_dict, netlist_to_dict
from tests.conftest import build_small_netlist, write_netlist


class TestRoundTrip:
    def test_dict_round_trip(self):
        netlist = build_small_netlist()
        rebuilt = netlist_from_dict(netlist_to_dict(netlist))
        assert rebuilt.name == netlist.name
        assert rebuilt.num_devices == netlist.num_devices
        assert rebuilt.num_microstrips == netlist.num_microstrips
        assert rebuilt.area.as_tuple() == netlist.area.as_tuple()
        assert rebuilt.technology == netlist.technology
        assert rebuilt.microstrip("ms1").target_length == pytest.approx(260.0)

    def test_file_round_trip(self, tmp_path):
        netlist = build_small_netlist()
        path = write_netlist(netlist, tmp_path / "circuit.json")
        rebuilt = load_netlist(path)
        assert rebuilt.microstrip_names == netlist.microstrip_names

    def test_document_is_valid_json_with_schema_version(self):
        data = json.loads(json.dumps(netlist_to_dict(build_small_netlist())))
        assert data["schema_version"] == 1
        assert data["name"] == "small5"


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(NetlistError):
            load_netlist(tmp_path / "missing.json")

    def test_invalid_json_text(self, tmp_path):
        path = tmp_path / "circuit.json"
        path.write_text("{not json")
        with pytest.raises(NetlistError):
            load_netlist(path)

    def test_unsupported_schema_version(self):
        data = netlist_to_dict(build_small_netlist())
        data["schema_version"] = 99
        with pytest.raises(NetlistError):
            netlist_from_dict(data)

    def test_missing_required_field(self):
        data = netlist_to_dict(build_small_netlist())
        del data["area"]
        with pytest.raises(NetlistError):
            netlist_from_dict(data)
