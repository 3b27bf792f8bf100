"""Tests of the exact flow's bend-budget certificate (``repro.core.exact``)."""

import pytest

from repro.core import BuildOptions, PILPConfig, RficModelBuilder
from repro.core.exact import add_bend_floor, bend_budget_levels, build_exact_model, pad_chain
from repro.core.warm_start import warm_start_from_geometry
from repro.geometry.point import Point
from repro.ilp.solution import Solution, SolveStatus

#: Straight, L- and Z-shaped routes with 2, 3 and 4 chain points.
ROUTES = {
    "I": [Point(40.0, 60.0), Point(240.0, 60.0)],
    "L": [Point(40.0, 60.0), Point(240.0, 60.0), Point(240.0, 200.0)],
    "L_vertical": [Point(300.0, 250.0), Point(300.0, 80.0), Point(120.0, 80.0)],
    "Z": [
        Point(40.0, 60.0),
        Point(140.0, 60.0),
        Point(140.0, 200.0),
        Point(330.0, 200.0),
    ],
    "Z_vertical": [
        Point(60.0, 250.0),
        Point(60.0, 150.0),
        Point(200.0, 150.0),
        Point(200.0, 40.0),
    ],
}


def _is_subsequence(points, padded):
    remaining = iter(padded)
    return all(any(point == other for other in remaining) for point in points)


def _manhattan_length(points):
    return sum(abs(b.x - a.x) + abs(b.y - a.y) for a, b in zip(points, points[1:]))


def _warm_bends_and_length(netlist, points):
    """Bends and geometric length of ``points`` under the warm start of ms_in."""
    count = len(points)
    options = BuildOptions(chain_point_counts={"ms_in": count, "ms_out": count})
    build = RficModelBuilder(netlist, PILPConfig.fast(), options).build()
    values = warm_start_from_geometry(build, {}, {"ms_in": points})
    net_vars = build.nets["ms_in"]
    return net_vars.bend_count.value(values), net_vars.geometric_length.value(values)


@pytest.mark.parametrize("count", [5, 6, 7])
@pytest.mark.parametrize("shape", sorted(ROUTES))
def test_padding_keeps_points_bends_and_length(tiny_netlist, shape, count):
    points = ROUTES[shape]
    padded = pad_chain(points, count)
    assert len(padded) == count
    assert (padded[0], padded[-1]) == (points[0], points[-1])
    assert _is_subsequence(points, padded)
    bends, length = _warm_bends_and_length(tiny_netlist, points)
    assert bends == len(points) - 2
    assert length == pytest.approx(_manhattan_length(points))
    assert _warm_bends_and_length(tiny_netlist, padded) == (bends, pytest.approx(length))


def test_padding_refuses_to_drop_points():
    with pytest.raises(ValueError):
        pad_chain(ROUTES["Z"], 3)


def test_no_layout_of_the_tiny_netlist_is_straight(tiny_netlist):
    """The two-point relaxation and the full model without bends are both infeasible.

    This is the floor the exact flow proves on its first relaxation.
    """
    config = PILPConfig.fast()
    straight = build_exact_model(tiny_netlist, config, {"ms_in": 2, "ms_out": 2})
    assert straight.model.solve(time_limit=60.0).status is SolveStatus.INFEASIBLE

    full = build_exact_model(tiny_netlist, config)
    full.model.add_constraint(full.max_bend_var <= 0, name="no_bends")
    assert full.model.solve(time_limit=60.0).status is SolveStatus.INFEASIBLE


def test_bend_floor_rows(tiny_netlist):
    build = build_exact_model(tiny_netlist, PILPConfig.fast())
    rows = build.model.num_constraints
    add_bend_floor(build, 0)
    assert build.model.num_constraints == rows
    add_bend_floor(build, 2)
    names = [c.name for c in build.model.constraints if c.name.startswith("obj.bend_floor")]
    assert names == ["obj.bend_floor", "obj.bend_floor_total"]


def test_a_relaxation_that_does_not_lift_leaves_the_full_model_to_search(
    tiny_netlist, monkeypatch
):
    """Without a lift the full model, floor rows included, is searched from it."""
    from repro.core import ExactLayoutGenerator
    from repro.ilp.backends.highs import HighsBackend

    solves = []
    solve = HighsBackend.solve

    def recording(self, model, *args, **kwargs):
        solves.append((model.name, kwargs.get("warm_start") is not None))
        return solve(self, model, *args, **kwargs)

    monkeypatch.setattr(HighsBackend, "solve", recording)
    monkeypatch.setattr(HighsBackend, "repair", lambda self, model, warm_start: None)
    result = ExactLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)

    assert solves == [
        ("exact[tiny][2 chain points]", False),
        ("exact[tiny][ms_in: 3 chain points]", False),
        ("exact[tiny]", True),
    ]
    assert result.layout.metadata["bend_floor"] == 1
    assert result.layout.metadata["certified_by_chain_points"] is None
    solution = result.phases[0].solution
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(24.0)
    assert solution.message.startswith("full model searched")


def test_single_net_levels_follow_each_proven_floor():
    """R_0, then per floor f one level per net bending it alone, then R_f."""
    levels = list(bend_budget_levels({"a": 4, "b": 4}))
    assert levels == [
        (None, {"a": 2, "b": 2}, 1),
        ("a", {"a": 3, "b": 2}, 1),
        ("b", {"a": 2, "b": 3}, 1),
        (None, {"a": 3, "b": 3}, 2),
        ("a", {"a": 4, "b": 2}, 2),
        ("b", {"a": 2, "b": 4}, 2),
    ]


def test_a_one_net_circuit_skips_its_single_net_levels():
    """Bending the only net is the uniform level, so it is solved once."""
    assert list(bend_budget_levels({"a": 4})) == [
        (None, {"a": 2}, 1),
        (None, {"a": 3}, 2),
    ]


def test_without_a_single_bent_net_the_uniform_level_certifies(tiny_netlist, monkeypatch):
    """Single-net levels that are all infeasible leave R_1 to certify, as before them."""
    from repro.core import ExactLayoutGenerator
    from repro.ilp.backends.highs import HighsBackend

    solves = []
    solve = HighsBackend.solve

    def single_nets_infeasible(self, model, *args, **kwargs):
        solves.append(model.name)
        if ": " in model.name:
            return Solution(status=SolveStatus.INFEASIBLE, backend="highs")
        return solve(self, model, *args, **kwargs)

    monkeypatch.setattr(HighsBackend, "solve", single_nets_infeasible)
    result = ExactLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)

    assert solves == [
        "exact[tiny][2 chain points]",
        "exact[tiny][ms_in: 3 chain points]",
        "exact[tiny][ms_out: 3 chain points]",
        "exact[tiny][3 chain points]",
    ]
    assert result.layout.metadata["bend_floor"] == 1
    assert result.layout.metadata["certified_by_chain_points"] == {"ms_in": 3, "ms_out": 3}
    solution = result.phases[0].solution
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(24.0)
    assert solution.message.startswith("certified by exact[tiny][3 chain points]")
    levels = result.profile()["phases"][0]["levels"]
    assert [level["status"] for level in levels] == [
        "infeasible",
        "infeasible",
        "infeasible",
        "optimal",
    ]


@pytest.mark.slow
def test_the_five_net_circuit_certifies_on_one_bent_net(small_netlist):
    """One bend on one net is the five-net circuit's optimum, and a single-net level proves it."""
    from repro.core import ExactLayoutGenerator

    result = ExactLayoutGenerator(PILPConfig.fast()).generate(small_netlist)
    certified = result.layout.metadata["certified_by_chain_points"]
    assert certified is not None
    assert sorted(certified.values()) == [2, 2, 2, 2, 3]
    solution = result.phases[0].solution
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(24.0)
    assert result.metrics.total_bend_count == 1
