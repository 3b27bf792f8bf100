"""Tests for solution objects."""

import pytest

from repro.errors import ModelError
from repro.ilp import Model, SolveStatus
from repro.ilp.solution import Solution


class TestSolutionObject:
    def test_summary_contains_status_and_objective(self):
        model = Model()
        x = model.add_continuous("x", ub=3)
        model.set_objective(x, sense="max")
        solution = model.solve()
        text = solution.summary()
        assert "optimal" in text
        assert "objective=3" in text

    def test_value_requires_feasibility(self):
        solution = Solution(status=SolveStatus.INFEASIBLE, backend="highs")
        model = Model()
        x = model.add_continuous("x")
        with pytest.raises(ModelError):
            solution.value(x)

    def test_value_of_unknown_variable(self):
        model = Model()
        x = model.add_continuous("x", ub=1)
        model.set_objective(x, sense="max")
        solution = model.solve()
        other = Model().add_continuous("y")
        with pytest.raises(ModelError):
            solution.value(other)

    def test_error_solution_flags(self):
        solution = Solution(status=SolveStatus.ERROR, backend="highs", message="boom")
        assert not solution.is_feasible
        assert not solution.is_optimal

    def test_feasible_but_not_optimal(self):
        model = Model()
        x = model.add_continuous("x", ub=1)
        solution = Solution(
            status=SolveStatus.FEASIBLE, objective=1.0, values={model.get_var("x"): 1.0}
        )
        assert solution.is_feasible
        assert not solution.is_optimal
