"""Tests of the warm-start assignment construction."""

from __future__ import annotations

import pytest

from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions, RficModelBuilder
from repro.core.warm_start import (
    manhattan_guess,
    warm_start_from_geometry,
    warm_start_from_seeds,
)
from repro.ilp.backends.highs import HighsBackend
from repro.ilp.solution import SolveStatus
from repro.geometry.point import Point


@pytest.fixture
def phase1_like_build(tiny_netlist):
    options = BuildOptions(
        blurred_devices=True,
        exact_lengths=False,
    )
    return RficModelBuilder(tiny_netlist, PILPConfig.fast(), options).build()


def test_manhattan_guess_stays_on_l_path():
    points = manhattan_guess(Point(0.0, 0.0), Point(100.0, 60.0), 5)
    assert len(points) == 5
    assert points[0] == Point(0.0, 0.0)
    assert points[-1] == Point(100.0, 60.0)
    for point in points:
        # Every sample lies on the horizontal-then-vertical L.
        assert point.y == pytest.approx(0.0) or point.x == pytest.approx(100.0)


def test_manhattan_guess_turns_vertical_first_when_asked():
    points = manhattan_guess(Point(0.0, 0.0), Point(100.0, 60.0), 5, vertical_first=True)
    assert points[0] == Point(0.0, 0.0)
    assert points[-1] == Point(100.0, 60.0)
    for point in points:
        assert point.x == pytest.approx(0.0) or point.y == pytest.approx(60.0)


def test_warm_start_values_respect_bounds_and_choices(phase1_like_build):
    build = phase1_like_build
    seeds = {
        "P_IN": Point(10.0, 150.0),
        "P_OUT": Point(390.0, 150.0),
        "M1": Point(200.0, 100.0),
    }
    values = warm_start_from_seeds(build, seeds)
    assert values, "warm start must assign something"
    for var, value in values.items():
        assert var.lb - 1e-9 <= value <= var.ub + 1e-9
        if var.is_integer:
            assert value == pytest.approx(round(value))

    # Exactly one direction binary per segment.
    for net_vars in build.nets.values():
        for segment in net_vars.segments:
            chosen = sum(values[var] for var in segment.directions.values())
            assert chosen == pytest.approx(1.0)

    # Exactly three of four selectors raised per spacing pair.
    for pair in build.spacing_pairs:
        raised = sum(values[selector] for selector in pair.selectors)
        assert raised == pytest.approx(3.0)


def test_warm_start_seeds_the_highs_incumbent(phase1_like_build):
    build = phase1_like_build
    seeds = {
        "P_IN": Point(10.0, 150.0),
        "P_OUT": Point(390.0, 150.0),
        "M1": Point(200.0, 100.0),
    }
    values = warm_start_from_seeds(build, seeds)
    repaired = HighsBackend().repair(build.model, values)
    solution = build.model.solve(time_limit=10.0, node_limit=1, warm_start=values)
    # The model is fully soft, so the repaired warm start is already a
    # feasible incumbent: one node cannot end worse than the repair.
    assert repaired is not None
    assert solution.status is SolveStatus.FEASIBLE
    assert solution.objective <= repaired.objective + 1e-6


def test_geometry_with_unknown_nets_is_ignored(phase1_like_build):
    values = warm_start_from_geometry(
        phase1_like_build,
        {"M1": Point(100.0, 100.0)},
        {"no_such_net": [Point(0, 0), Point(1, 1)]},
    )
    device_vars = phase1_like_build.devices["M1"]
    assert values[device_vars.x] == pytest.approx(100.0)
