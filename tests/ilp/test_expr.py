"""Unit tests for linear expressions, variables and constraints."""

import math

import pytest

from repro.errors import ModelError
from repro.ilp import LinExpr, Model, Sense, VarType, lin_sum
from repro.ilp.expr import Constraint


@pytest.fixture
def model():
    return Model("expr-tests")


class TestVariable:
    def test_binary_bounds_clamped(self, model):
        var = model.add_binary("b")
        assert var.lb == 0.0
        assert var.ub == 1.0
        assert var.is_binary
        assert var.is_integer

    def test_continuous_defaults(self, model):
        var = model.add_continuous("x")
        assert var.lb == 0.0
        assert math.isinf(var.ub)
        assert not var.is_integer

    def test_integer_variable(self, model):
        var = model.add_var("n", lb=1, ub=7, vartype=VarType.INTEGER)
        assert var.vartype is VarType.INTEGER
        assert var.is_integer and not var.is_binary

    def test_invalid_bounds_rejected(self, model):
        with pytest.raises(ModelError):
            model.add_continuous("bad", lb=3.0, ub=1.0)

    def test_nan_bounds_rejected(self, model):
        with pytest.raises(ModelError):
            model.add_continuous("bad", lb=float("nan"))

    def test_duplicate_name_rejected(self, model):
        model.add_continuous("x")
        with pytest.raises(ModelError):
            model.add_continuous("x")

    def test_auto_generated_names_unique(self, model):
        first = model.add_continuous()
        second = model.add_continuous()
        assert first.name != second.name

    def test_not_equal_is_rejected(self, model):
        x = model.add_continuous("x")
        with pytest.raises(ModelError):
            _ = x != 3


class TestLinExprArithmetic:
    def test_addition_of_variables(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = x + y
        assert expr.coeffs[x] == 1.0
        assert expr.coeffs[y] == 1.0
        assert expr.constant == 0.0

    def test_scalar_multiplication(self, model):
        x = model.add_continuous("x")
        expr = 3 * x + 2
        assert expr.coeffs[x] == 3.0
        assert expr.constant == 2.0

    def test_subtraction_and_negation(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = -(x - 2 * y) + 1
        assert expr.coeffs[x] == -1.0
        assert expr.coeffs[y] == 2.0
        assert expr.constant == 1.0

    def test_rsub_with_constant(self, model):
        x = model.add_continuous("x")
        expr = 10 - x
        assert expr.coeffs[x] == -1.0
        assert expr.constant == 10.0

    def test_division_by_scalar(self, model):
        x = model.add_continuous("x")
        expr = (4 * x + 2) / 2
        assert expr.coeffs[x] == 2.0
        assert expr.constant == 1.0

    def test_division_by_zero_raises(self, model):
        x = model.add_continuous("x")
        with pytest.raises(ZeroDivisionError):
            _ = x.to_expr() / 0

    def test_product_of_expressions_rejected(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        with pytest.raises(ModelError):
            _ = x.to_expr() * y.to_expr()

    def test_near_zero_coefficients_dropped(self, model):
        x = model.add_continuous("x")
        expr = x - x
        assert expr.coeffs == {}

    def test_lin_sum(self, model):
        xs = [model.add_continuous(f"x{i}") for i in range(5)]
        expr = lin_sum(xs)
        assert len(expr.coeffs) == 5
        assert all(coeff == 1.0 for coeff in expr.coeffs.values())

    def test_sum_with_constants(self, model):
        x = model.add_continuous("x")
        expr = LinExpr.sum([x, 2, 3.5])
        assert expr.constant == 5.5

    def test_evaluation(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = 2 * x - y + 4
        assert expr.value({x: 3.0, y: 1.0}) == pytest.approx(9.0)

    def test_from_value_rejects_garbage(self):
        with pytest.raises(ModelError):
            LinExpr.from_value("not an expression")


class TestConstraints:
    def test_le_constraint_sense(self, model):
        x = model.add_continuous("x")
        constraint = x + 1 <= 5
        assert isinstance(constraint, Constraint)
        assert constraint.sense is Sense.LE

    def test_ge_constraint_sense(self, model):
        x = model.add_continuous("x")
        constraint = x >= 2
        assert constraint.sense is Sense.GE

    def test_eq_constraint_sense(self, model):
        x = model.add_continuous("x")
        constraint = x.to_expr() == 3
        assert constraint.sense is Sense.EQ

    def test_rhs_folded_into_constant(self, model):
        x = model.add_continuous("x")
        constraint = 2 * x <= 8
        assert constraint.expr.constant == -8.0

    def test_satisfaction_check(self, model):
        x = model.add_continuous("x")
        constraint = 2 * x <= 8
        assert constraint.is_satisfied({x: 4.0})
        assert constraint.is_satisfied({x: 3.9})
        assert not constraint.is_satisfied({x: 4.1})

    def test_violation_amount(self, model):
        x = model.add_continuous("x")
        constraint = x >= 5
        assert constraint.violation({x: 3.0}) == pytest.approx(2.0)
        assert constraint.violation({x: 6.0}) == 0.0

    def test_equality_violation_is_absolute(self, model):
        x = model.add_continuous("x")
        constraint = x.to_expr() == 2
        assert constraint.violation({x: 5.0}) == pytest.approx(3.0)
        assert constraint.violation({x: -1.0}) == pytest.approx(3.0)

    def test_with_name(self, model):
        x = model.add_continuous("x")
        constraint = (x <= 1).with_name("cap")
        assert constraint.name == "cap"
