"""Unit tests for the concurrent placement-and-routing model builder.

These tests exercise the *structure* of the generated MILP (variables,
constraint families, pruning, options) without solving anything expensive;
the solved-model behaviour is covered by the exact-flow and P-ILP tests.
"""

import itertools

import pytest

from repro.core import BuildOptions, PILPConfig, RficModelBuilder
from repro.core.model_builder import DIRECTIONS
from repro.errors import ModelError
from repro.geometry import Rect
from repro.ilp.solution import Solution, SolveStatus
from tests.conftest import build_tiny_netlist


@pytest.fixture
def netlist():
    return build_tiny_netlist()


@pytest.fixture
def config():
    return PILPConfig.fast()


def build(netlist, config, **option_overrides):
    options = BuildOptions(**option_overrides)
    return RficModelBuilder(netlist, config, options).build()


class TestModelStructure:
    def test_variable_bundles_cover_netlist(self, netlist, config):
        result = build(netlist, config)
        assert set(result.devices) == set(netlist.device_names)
        assert set(result.nets) == set(netlist.microstrip_names)

    def test_chain_point_counts_respected(self, netlist, config):
        result = build(netlist, config, chain_point_counts={"ms_in": 5, "ms_out": 3})
        assert len(result.nets["ms_in"].xs) == 5
        assert len(result.nets["ms_in"].segments) == 4
        assert len(result.nets["ms_out"].segments) == 2

    def test_direction_binaries_per_segment(self, netlist, config):
        result = build(netlist, config)
        for net_vars in result.nets.values():
            for segment in net_vars.segments:
                assert set(segment.directions) == set(DIRECTIONS)
                assert all(var.is_binary for var in segment.directions.values())

    def test_bend_variables_only_at_interior_points(self, netlist, config):
        result = build(netlist, config, chain_point_counts={"ms_in": 4, "ms_out": 2})
        assert len(result.nets["ms_in"].bend_vars) == 2
        assert len(result.nets["ms_out"].bend_vars) == 0

    def test_exact_length_adds_equality(self, netlist, config):
        exact = build(netlist, config, exact_lengths=True)
        names = [constraint.name for constraint in exact.model.constraints]
        assert any(name.endswith(".exact_length") for name in names)
        assert exact.nets["ms_in"].length_slack is None

    def test_soft_length_adds_slack(self, netlist, config):
        soft = build(netlist, config, exact_lengths=False)
        assert soft.nets["ms_in"].length_slack is not None
        assert soft.max_length_slack_var is not None

    def test_overlap_slack_only_when_allowed(self, netlist, config):
        hard = build(netlist, config, exact_lengths=True)
        soft = build(netlist, config, exact_lengths=False)
        assert not hard.overlap_slacks
        assert soft.overlap_slacks

    def test_blurred_mode_grows_targets(self, netlist, config):
        blurred = build(netlist, config, blurred_devices=True, exact_lengths=False)
        normal = build(netlist, config, exact_lengths=False)
        assert (
            blurred.nets["ms_in"].target_length > normal.nets["ms_in"].target_length
        )

    def test_blurred_mode_excludes_device_blocks(self, netlist, config):
        blurred = build(netlist, config, blurred_devices=True, exact_lengths=False)
        full = build(netlist, config)
        assert blurred.num_spacing_pairs < full.num_spacing_pairs

    def test_rotation_variables_created_when_allowed(self, netlist, config):
        result = build(netlist, config, rotatable_devices={"M1"})
        assert len(result.devices["M1"].rotation_vars) == 4
        assert not result.devices["P_IN"].rotation_vars

    def test_pads_get_boundary_side_binaries(self, netlist, config):
        result = build(netlist, config)
        assert set(result.devices["P_IN"].boundary_sides) == {
            "left",
            "right",
            "bottom",
            "top",
        }
        assert not result.devices["M1"].boundary_sides

    def test_window_pruning_reduces_pairs(self, netlist, config):
        unpruned = build(netlist, config)
        windows = {
            ("ms_in", index): Rect(0, 0, 120, 120) for index in range(4)
        }
        windows.update({("ms_out", index): Rect(280, 180, 400, 300) for index in range(4)})
        device_windows = {
            "P_IN": Rect(0, 0, 120, 120),
            "M1": Rect(150, 100, 250, 200),
            "P_OUT": Rect(280, 180, 400, 300),
        }
        pruned = build(
            netlist,
            config,
            chain_windows=windows,
            device_windows=device_windows,
        )
        assert pruned.num_spacing_pairs < unpruned.num_spacing_pairs

    def test_statistics_scale_with_chain_points(self, netlist, config):
        small = build(netlist, config, chain_point_counts={"ms_in": 3, "ms_out": 3})
        large = build(netlist, config, chain_point_counts={"ms_in": 6, "ms_out": 6})
        assert (
            large.model.statistics()["binary_variables"]
            > small.model.statistics()["binary_variables"]
        )


def _bend_point_rows(netlist, config):
    """A one-bend-point net's model with the AND rows, and that point's rows."""
    builder = RficModelBuilder(
        netlist, config, BuildOptions(chain_point_counts={"ms_in": 3, "ms_out": 2})
    )
    result = builder.build()
    builder.add_bend_and_rows()
    prefix = "net[ms_in].bend[1]"
    rows = {
        constraint.name[len(prefix) + 1 :]: constraint
        for constraint in result.model.constraints
        if constraint.name.startswith(prefix + ".")
    }
    previous, current = result.nets["ms_in"].segments
    return result.model, rows, previous, current


class TestBendAndRows:
    @pytest.mark.parametrize(
        "previous_direction, current_direction",
        list(itertools.product(DIRECTIONS, repeat=2)),
    )
    def test_rows_cut_off_no_integer_point_of_the_bend_rows(
        self, netlist, config, previous_direction, current_direction
    ):
        model, rows, previous, current = _bend_point_rows(netlist, config)
        assert set(rows) == {"hv", "vh", "sum", "hv_and", "vh_and"}
        directions = {
            var: 1.0 if name == chosen else 0.0
            for segment, chosen in ((previous, previous_direction), (current, current_direction))
            for name, var in segment.directions.items()
        }
        aux = [
            model.get_var(f"net[ms_in].bend[1].{name}")
            for name in ("t_hv", "u_hv", "t_vh", "u_vh", "t")
        ]
        # The binary (t, u) values that rows (8)-(10) allow for these directions.
        forced = []
        for bits in itertools.product((0.0, 1.0), repeat=len(aux)):
            point = {**directions, **dict(zip(aux, bits))}
            if all(rows[name].is_satisfied(point) for name in ("hv", "vh", "sum")):
                forced.append(point)
        assert len(forced) == 1
        assert rows["hv_and"].is_satisfied(forced[0])
        assert rows["vh_and"].is_satisfied(forced[0])

    def test_rows_cut_off_the_fractional_turn_that_rows_8_to_10_allow(self, netlist, config):
        model, rows, previous, current = _bend_point_rows(netlist, config)
        point = {
            var: 0.0 for segment in (previous, current) for var in segment.directions.values()
        }
        point[previous.directions["r"]] = point[current.directions["u"]] = 1.0
        values = {"t_hv": 0.5, "u_hv": 1.0, "t_vh": 0.0, "u_vh": 0.0, "t": 0.5}
        point.update({model.get_var(f"net[ms_in].bend[1].{k}"): v for k, v in values.items()})
        assert all(rows[name].is_satisfied(point) for name in ("hv", "vh", "sum"))
        assert not rows["hv_and"].is_satisfied(point)


class TestExtraction:
    def test_extract_requires_feasible_solution(self, netlist, config):
        result = build(netlist, config)
        with pytest.raises(ModelError):
            result.extract_layout(Solution(status=SolveStatus.INFEASIBLE))

    def test_extracted_layout_is_complete_and_rectilinear(
        self, exact_tiny_result
    ):
        layout = exact_tiny_result.layout
        assert layout.is_complete
        for route in layout.routes:
            for segment in route.segments():
                assert segment.is_horizontal or segment.is_vertical

    def test_diagnostic_maps_cover_all_nets(self, exact_tiny_result):
        phase = exact_tiny_result.phases[0]
        assert set(phase.length_errors) == {"ms_in", "ms_out"}
        assert set(phase.bend_counts) == {"ms_in", "ms_out"}
