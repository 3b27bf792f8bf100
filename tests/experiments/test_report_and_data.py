"""Tests for the experiment reporting helpers and the published paper data."""

import json

import pytest

from repro.experiments import (
    PAPER_CIRCUIT_SIZES,
    PAPER_FIGURE11_GAIN,
    PAPER_TABLE1,
    format_runtime,
    format_text_table,
    paper_table1_entry,
    save_json,
)


class TestTextTable:
    def test_basic_rendering(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": None}]
        text = format_text_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-" in text  # missing value placeholder
        assert "22" in text

    def test_explicit_column_order(self):
        rows = [{"a": 1, "b": 2}]
        text = format_text_table(rows, columns=["b", "a"])
        header = text.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_empty_rows(self):
        assert "(no rows)" in format_text_table([], title="empty")

    def test_float_formatting(self):
        text = format_text_table([{"x": 3.14159}])
        assert "3.142" in text


class TestPersistence:
    def test_save_json(self, tmp_path):
        path = save_json({"rows": [1, 2, 3]}, tmp_path / "out.json")
        assert json.loads(path.read_text()) == {"rows": [1, 2, 3]}

    def test_save_json_handles_numpy(self, tmp_path):
        import numpy as np

        path = save_json({"value": np.float64(1.5)}, tmp_path / "np.json")
        assert json.loads(path.read_text()) == {"value": 1.5}


class TestRuntimeFormatting:
    @pytest.mark.parametrize(
        "seconds,expected",
        [(5.0, "5.0s"), (65.0, "1m05.0s"), (1085.4, "18m05.4s"), (-3.0, "0.0s")],
    )
    def test_format_runtime(self, seconds, expected):
        assert format_runtime(seconds) == expected


class TestPaperData:
    def test_every_circuit_has_two_area_settings(self):
        circuits = {key[0] for key in PAPER_TABLE1}
        for circuit in circuits:
            assert (circuit, 0) in PAPER_TABLE1
            assert (circuit, 1) in PAPER_TABLE1

    def test_pilp_beats_manual_in_published_numbers(self):
        for (circuit, setting), entry in PAPER_TABLE1.items():
            if entry.manual_total_bends is not None:
                assert entry.pilp_total_bends < entry.manual_total_bends
            if entry.manual_max_bends is not None:
                assert entry.pilp_max_bends <= entry.manual_max_bends

    def test_lookup_helper(self):
        assert paper_table1_entry("lna94", 0).manual_total_bends == 59
        assert paper_table1_entry("lna94", 5) is None

    def test_figure11_gains_favor_pilp(self):
        for values in PAPER_FIGURE11_GAIN.values():
            assert values["pilp"] >= values["manual"]

    def test_circuit_sizes_consistent_with_table(self):
        assert set(PAPER_CIRCUIT_SIZES) == {key[0] for key in PAPER_TABLE1}
