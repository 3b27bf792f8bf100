"""Unit tests for the Model container and its standard-form export."""

import pytest

from repro.errors import ModelError
from repro.ilp import Model, SolveStatus, VarType


@pytest.fixture
def model():
    return Model("model-tests")


class TestModelConstruction:
    def test_variable_lookup_by_name(self, model):
        x = model.add_continuous("x")
        assert model.get_var("x") is x

    def test_unknown_variable_lookup_raises(self, model):
        with pytest.raises(ModelError):
            model.get_var("nope")

    def test_num_variables_and_constraints(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        model.add_constraint(x + y <= 3)
        assert model.num_variables == 2
        assert model.num_constraints == 1

    def test_constraint_requires_comparison(self, model):
        x = model.add_continuous("x")
        with pytest.raises(ModelError):
            model.add_constraint(x + 1)  # type: ignore[arg-type]

    def test_foreign_variable_rejected(self, model):
        other = Model("other")
        foreign = other.add_continuous("z")
        with pytest.raises(ModelError):
            model.add_constraint(foreign <= 1)

    def test_objective_sense_validation(self, model):
        x = model.add_continuous("x")
        with pytest.raises(ModelError):
            model.set_objective(x, sense="sideways")

    def test_statistics(self, model):
        model.add_binary("b")
        model.add_var("n", ub=4, vartype=VarType.INTEGER)
        model.add_continuous("x")
        stats = model.statistics()
        assert stats["binary_variables"] == 1
        assert stats["integer_variables"] == 1
        assert stats["continuous_variables"] == 1

    def test_auto_constraint_names(self, model):
        x = model.add_continuous("x")
        constraint = model.add_constraint(x <= 1)
        assert constraint.name


class TestStandardForm:
    def test_le_and_ge_rows(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        model.add_constraint(x + 2 * y <= 4)
        model.add_constraint(x - y >= 1)
        form = model.to_standard_form()
        assert form.a_ub.shape == (2, 2)
        dense = form.a_ub.toarray()
        assert dense[0].tolist() == [1.0, 2.0]
        # GE rows are negated into <= form.
        assert dense[1].tolist() == [-1.0, 1.0]
        assert form.b_ub.tolist() == [4.0, -1.0]

    def test_eq_rows(self, model):
        x = model.add_continuous("x")
        model.add_constraint(x.to_expr() == 2)
        form = model.to_standard_form()
        assert form.a_eq.shape == (1, 1)
        assert form.b_eq.tolist() == [2.0]

    def test_integrality_vector(self, model):
        model.add_continuous("x")
        model.add_binary("b")
        model.add_var("n", ub=9, vartype=VarType.INTEGER)
        form = model.to_standard_form()
        assert form.integrality.tolist() == [0, 1, 1]
        assert form.num_integer_variables == 2

    def test_objective_constant_preserved(self, model):
        x = model.add_continuous("x", ub=1)
        model.set_objective(x + 10, sense="min")
        form = model.to_standard_form()
        assert form.objective_constant == 10.0

    def test_bounds_arrays(self, model):
        model.add_continuous("x", lb=-1.0, ub=2.0)
        model.add_binary("b")
        form = model.to_standard_form()
        assert form.lower.tolist() == [-1.0, 0.0]
        assert form.upper.tolist() == [2.0, 1.0]

    def test_counts(self, model):
        x = model.add_continuous("x")
        model.add_constraint(x <= 1)
        model.add_constraint(x.to_expr() == 0.5)
        form = model.to_standard_form()
        assert form.num_constraints == 2
        assert form.num_variables == 1


class TestSolveAndCheck:
    def test_simple_lp(self, model):
        x = model.add_continuous("x", ub=10)
        y = model.add_continuous("y", ub=10)
        model.add_constraint(x + y <= 12)
        model.set_objective(3 * x + 2 * y, sense="max")
        solution = model.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(34.0)

    def test_objective_constant_in_solution(self, model):
        x = model.add_continuous("x", ub=5)
        model.set_objective(x + 100, sense="max")
        solution = model.solve()
        assert solution.objective == pytest.approx(105.0)

    def test_check_solution_reports_no_violations(self, model):
        x = model.add_continuous("x", ub=10)
        model.add_constraint(x <= 7)
        model.set_objective(x, sense="max")
        solution = model.solve()
        assert model.check_solution(solution) == []

    def test_check_solution_rejects_infeasible_result(self, model):
        x = model.add_continuous("x", ub=1)
        model.add_constraint(x >= 2)
        solution = model.solve()
        assert solution.status is SolveStatus.INFEASIBLE
        with pytest.raises(ModelError):
            model.check_solution(solution)

    def test_empty_model_is_trivially_optimal(self, model):
        solution = model.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(0.0)

    def test_value_of_expression(self, model):
        x = model.add_continuous("x", ub=4)
        model.set_objective(x, sense="max")
        solution = model.solve()
        assert solution.value(2 * x + 1) == pytest.approx(9.0)

    def test_unknown_backend(self, model):
        from repro.errors import SolverError

        model.add_continuous("x", ub=1)
        with pytest.raises(SolverError):
            model.solve(backend="cplex")
