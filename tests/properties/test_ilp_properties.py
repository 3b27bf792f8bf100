"""Property-based tests for the MILP modelling layer and the HiGHS solver."""

import math

from hypothesis import given, settings, strategies as st

from milp_oracle import oracle_solve
from repro.ilp import LinExpr, Model, SolveStatus, VarType

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestExpressionAlgebra:
    @given(st.lists(finite, min_size=1, max_size=6), finite)
    def test_evaluation_matches_manual_sum(self, coefficients, constant):
        model = Model()
        variables = [model.add_continuous(f"x{i}", lb=-100, ub=100) for i in range(len(coefficients))]
        expr = LinExpr.sum(
            [c * v for c, v in zip(coefficients, variables)] + [constant]
        )
        assignment = {v: 1.5 for v in variables}
        expected = sum(1.5 * c for c in coefficients) + constant
        assert math.isclose(expr.value(assignment), expected, rel_tol=1e-9, abs_tol=1e-9)

    @given(finite, finite, finite)
    def test_arithmetic_identities(self, a, b, c):
        model = Model()
        x = model.add_continuous("x", lb=-100, ub=100)
        left = a * (x + b) + c
        right = a * x + (a * b + c)
        assignment = {x: 2.25}
        assert math.isclose(left.value(assignment), right.value(assignment), rel_tol=1e-9, abs_tol=1e-7)


class TestSolverProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=7,
        ),
        st.integers(min_value=1, max_value=20),
    )
    def test_knapsack_solution_is_feasible_and_greedy_bounded(self, items, capacity):
        """The MILP optimum is feasible and at least as good as greedy."""
        model = Model()
        binaries = [model.add_binary(f"b{i}") for i in range(len(items))]
        model.add_constraint(
            LinExpr.sum(weight * b for (weight, _), b in zip(items, binaries)) <= capacity
        )
        model.set_objective(
            LinExpr.sum(value * b for (_, value), b in zip(items, binaries)), sense="max"
        )
        solution = model.solve()
        assert solution.status is SolveStatus.OPTIMAL

        chosen_weight = sum(
            weight for (weight, _), b in zip(items, binaries) if solution.value(b) > 0.5
        )
        assert chosen_weight <= capacity + 1e-6

        # Greedy by value density never beats the exact optimum.
        order = sorted(
            range(len(items)), key=lambda i: items[i][1] / items[i][0], reverse=True
        )
        remaining, greedy_value = capacity, 0
        for index in order:
            weight, value = items[index]
            if weight <= remaining:
                remaining -= weight
                greedy_value += value
        assert solution.objective >= greedy_value - 1e-6

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.tuples(finite, finite), min_size=1, max_size=5).filter(
            lambda rows: all(abs(a) + abs(b) > 0.1 for a, b in rows)
        )
    )
    def test_backends_agree_on_random_lps(self, rows):
        """HiGHS and the exhaustive oracle agree on random bounded LPs."""
        model = Model()
        x = model.add_continuous("x", lb=-10, ub=10)
        y = model.add_continuous("y", lb=-10, ub=10)
        for index, (a, b) in enumerate(rows):
            model.add_constraint(a * x + b * y <= 25.0, name=f"row{index}")
        model.set_objective(x + y, sense="max")
        objectives = []
        for solution in (model.solve(), oracle_solve(model)):
            assert solution.status is SolveStatus.OPTIMAL
            objectives.append(solution.objective)
        assert math.isclose(objectives[0], objectives[1], rel_tol=1e-6, abs_tol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=40))
    def test_integer_rounding_invariant(self, lower, span):
        """An integer variable maximised under x <= bound lands on floor(bound)."""
        model = Model()
        n = model.add_var("n", lb=0, ub=100, vartype=VarType.INTEGER)
        bound = lower + span / 3.0
        model.add_constraint(n <= bound)
        model.set_objective(n, sense="max")
        solution = model.solve()
        assert solution.value(n) == math.floor(bound + 1e-9)
