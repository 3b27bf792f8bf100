"""Tests of the HiGHS solver, cross-checked against an exhaustive oracle.

The oracle (``tests/milp_oracle.py``) enumerates every integer point and
every vertex of the continuous columns with numpy; it never calls HiGHS.
"""

from types import SimpleNamespace

import pytest

from milp_oracle import oracle_solve
from repro.errors import SolverError
from repro.ilp import Model, SolveStatus, VarType
from repro.ilp.backends import highs as highs_module
from repro.ilp.backends.highs import HighsBackend

#: HiGHS (through ``Model.solve``) and the oracle, by name.
SOLVERS = {"highs": lambda model: model.solve(), "oracle": oracle_solve}


def knapsack_model(weights, values, capacity):
    model = Model("knapsack")
    items = [model.add_binary(f"item{i}") for i in range(len(weights))]
    model.add_constraint(
        sum(weight * item for weight, item in zip(weights, items)) <= capacity
    )
    model.set_objective(
        sum(value * item for value, item in zip(values, items)), sense="max"
    )
    return model, items


def mixed_model():
    """One continuous, one binary and one integer column; optimum 18."""
    model = Model()
    x = model.add_continuous("x", ub=10)
    b = model.add_binary("b")
    n = model.add_var("n", ub=3, vartype=VarType.INTEGER)
    model.add_constraint(x + 4 * b + 2 * n <= 9)
    model.add_constraint(x >= n)
    model.set_objective(2 * x + 3 * b + n, sense="max")
    return model


@pytest.mark.parametrize("backend", SOLVERS)
class TestBothBackends:
    """Known optima, reached by HiGHS and by the oracle."""

    def test_knapsack_optimum(self, backend):
        # Best bundle: items with weights 4 and 6 (values 5 + 9 = 14).
        model, items = knapsack_model([3, 4, 5, 6], [4, 5, 6, 9], capacity=10)
        solution = SOLVERS[backend](model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)

    def test_integer_rounding(self, backend):
        model = Model()
        n = model.add_var("n", lb=0, ub=10, vartype=VarType.INTEGER)
        model.add_constraint(2 * n <= 7)
        model.set_objective(n, sense="max")
        solution = SOLVERS[backend](model)
        assert solution.value(n) == pytest.approx(3.0)

    def test_infeasible_detection(self, backend):
        model = Model()
        x = model.add_continuous("x", lb=0, ub=1)
        model.add_constraint(x >= 2)
        solution = SOLVERS[backend](model)
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.is_feasible

    def test_pure_lp(self, backend):
        model = Model()
        x = model.add_continuous("x", ub=4)
        y = model.add_continuous("y", ub=4)
        model.add_constraint(x + y <= 6)
        model.set_objective(x + 3 * y, sense="max")
        solution = SOLVERS[backend](model)
        assert solution.objective == pytest.approx(14.0)

    def test_minimisation(self, backend):
        model = Model()
        x = model.add_continuous("x", lb=2, ub=9)
        model.set_objective(5 * x, sense="min")
        solution = SOLVERS[backend](model)
        assert solution.objective == pytest.approx(10.0)

    def test_equality_constraints(self, backend):
        model = Model()
        x = model.add_continuous("x", ub=10)
        y = model.add_continuous("y", ub=10)
        model.add_constraint(x + y == 7)
        model.add_constraint(x - y == 1)
        model.set_objective(x, sense="min")
        solution = SOLVERS[backend](model)
        assert solution.value(x) == pytest.approx(4.0)
        assert solution.value(y) == pytest.approx(3.0)

    def test_binary_assignment_problem(self, backend):
        # 2x2 assignment: worker i to task j with costs; optimal is diagonal.
        costs = {(0, 0): 1, (0, 1): 5, (1, 0): 6, (1, 1): 2}
        model = Model()
        assign = {key: model.add_binary(f"a{key}") for key in costs}
        for worker in range(2):
            model.add_constraint(assign[(worker, 0)] + assign[(worker, 1)] == 1)
        for task in range(2):
            model.add_constraint(assign[(0, task)] + assign[(1, task)] == 1)
        model.set_objective(
            sum(cost * assign[key] for key, cost in costs.items()), sense="min"
        )
        solution = SOLVERS[backend](model)
        assert solution.objective == pytest.approx(3.0)
        assert solution.value(assign[(0, 0)]) == pytest.approx(1.0)


class TestBackendAgreement:
    """HiGHS and the oracle find the same optimum, or both find none."""

    @staticmethod
    def agree(model):
        highs, oracle = model.solve(), oracle_solve(model)
        assert highs.status is oracle.status
        if oracle.is_feasible:
            assert highs.objective == pytest.approx(oracle.objective)
            assert model.check_solution(highs) == []
            assert model.check_solution(oracle) == []
        return highs

    @pytest.mark.parametrize(
        "weights,values,capacity",
        [
            ([2, 3, 4, 5], [3, 4, 5, 6], 5),
            ([1, 2, 3, 8, 7, 4], [20, 5, 10, 40, 15, 25], 10),
            ([5, 5, 5], [10, 10, 10], 4),
        ],
    )
    def test_backends_agree_on_knapsacks(self, weights, values, capacity):
        model, _ = knapsack_model(weights, values, capacity)
        self.agree(model)

    def test_backends_agree_on_mixed_model(self):
        assert self.agree(mixed_model()).objective == pytest.approx(18.0)

    def test_backends_agree_on_infeasible_models(self):
        continuous = Model()
        x = continuous.add_continuous("x", lb=0, ub=1)
        continuous.add_constraint(x >= 2)
        # Feasible as an LP (n = 1.5), infeasible over the integers.
        integer = Model()
        n = integer.add_var("n", lb=0, ub=5, vartype=VarType.INTEGER)
        integer.add_constraint(2 * n == 3)
        for model in (continuous, integer):
            assert self.agree(model).status is SolveStatus.INFEASIBLE


class TestHighsSpecifics:
    def test_unknown_option_rejected(self):
        model = Model()
        model.add_continuous("x", ub=1)
        with pytest.raises(SolverError):
            model.solve(warm_start=True)

    def test_gap_reported(self):
        model, _ = knapsack_model([3, 4, 5], [4, 5, 6], 9)
        solution = model.solve()
        assert solution.gap is not None
        assert solution.gap <= 1e-6

    def test_time_limit_is_accepted(self):
        model, _ = knapsack_model([2, 3, 4], [3, 4, 5], 6)
        solution = model.solve(time_limit=10.0)
        assert solution.is_feasible

    def test_node_limit_without_incumbent_is_a_limit_not_an_error(self, tiny_netlist):
        """HiGHS ends a node-capped search with ``kSolutionLimit``; with no
        incumbent that reads as ``TIME_LIMIT``, with the nodes counted."""
        from repro.core.config import PILPConfig
        from repro.core.model_builder import BuildOptions, RficModelBuilder

        options = BuildOptions(
            blurred_devices=False,
            exact_lengths=True,
        )
        model = RficModelBuilder(tiny_netlist, PILPConfig.fast(), options).build().model
        solution = model.solve(node_limit=20)
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.iterations == 20

    def test_missing_binding_raises_naming_it(self, monkeypatch):
        monkeypatch.setattr(highs_module, "_core", None)
        model, _ = knapsack_model([2, 3, 4], [3, 4, 5], 6)
        with pytest.raises(SolverError, match=r"scipy\.optimize\._highspy\._core"):
            HighsBackend().solve(model)


class TestWarmStarts:
    """Warm-started solves reach the oracle's optimum."""

    def _model(self):
        return knapsack_model([3, 4, 5, 6], [4, 5, 6, 9], capacity=10)

    def test_feasible_warm_start_reaches_same_optimum(self):
        model, items = self._model()
        # Feasible but sub-optimal start: take only item 0.
        warm = {items[0]: 1.0, items[1]: 0.0, items[2]: 0.0, items[3]: 0.0}
        warm_solution = model.solve(warm_start=warm)
        assert warm_solution.status is SolveStatus.OPTIMAL
        assert warm_solution.objective == pytest.approx(oracle_solve(model).objective)

    def test_infeasible_warm_start_is_only_a_seed(self):
        model, items = self._model()
        # Violates the capacity constraint; must not poison the result.
        warm = {item: 1.0 for item in items}
        solution = model.solve(warm_start=warm)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)

    def test_partial_and_foreign_names_are_tolerated(self):
        model, items = self._model()
        warm = {"item1": 1.0, "does_not_exist": 5.0}
        solution = model.solve(warm_start=warm)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)

    def test_backends_agree_on_warm_started_solves(self):
        for model, warm in (
            (self._model()[0], {"item3": 1.0}),
            (mixed_model(), {"x": 1.0, "b": 1.0, "n": 1.0}),
        ):
            solution = model.solve(warm_start=warm)
            assert solution.status is SolveStatus.OPTIMAL
            assert solution.objective == pytest.approx(oracle_solve(model).objective)

    def test_progressive_solve_matches_plain_optimum(self):
        model, _ = self._model()
        plain = model.solve()
        progressive = model.solve(time_limit=10.0, progressive=True)
        assert progressive.status is SolveStatus.OPTIMAL
        assert progressive.objective == pytest.approx(plain.objective)


class TestRepair:
    """``HighsBackend.repair`` keeps the warm start's integer choices and
    solves only the remaining LP, on a copy of the bounds."""

    def _model(self):
        model = Model("repair")
        x = model.add_continuous("x", lb=0.0, ub=10.0)
        y = model.add_binary("y")
        model.add_constraint(x <= 3 + 5 * y)
        model.set_objective(x + y, sense="max")
        return model, x, y

    def test_integer_columns_keep_the_warm_start_choice(self):
        model, x, y = self._model()
        lower = model.to_standard_form().lower.copy()
        upper = model.to_standard_form().upper.copy()
        solution = HighsBackend().repair(model, {y: 0.2, x: 7.0})
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.value(y) == 0.0
        assert solution.value(x) == pytest.approx(3.0)
        assert solution.objective == pytest.approx(3.0)
        assert solution.backend == "highs"
        form = model.to_standard_form()
        assert (form.lower == lower).all() and (form.upper == upper).all()
        assert model.solve().objective == pytest.approx(9.0)
        assert oracle_solve(model).objective == pytest.approx(9.0)

    def test_unmatched_warm_start_gives_none(self):
        model, _, _ = self._model()
        assert HighsBackend().repair(model, {"does_not_exist": 1.0}) is None

    def test_infeasible_pinned_lp_gives_none(self):
        model, items = knapsack_model([3, 4, 5, 6], [4, 5, 6, 9], capacity=10)
        assert HighsBackend().repair(model, {item: 1.0 for item in items}) is None


class TestOracle:
    def test_the_oracle_never_calls_highs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called HiGHS")

        monkeypatch.setattr(highs_module, "run", refuse)
        monkeypatch.setattr(highs_module, "lower", refuse)
        model, _ = knapsack_model([3, 4, 5, 6], [4, 5, 6, 9], capacity=10)
        assert oracle_solve(model).objective == pytest.approx(14.0)
        assert oracle_solve(mixed_model()).objective == pytest.approx(18.0)
        with pytest.raises(AssertionError, match="called HiGHS"):
            model.solve()

    def test_models_it_cannot_enumerate_are_refused(self):
        unbounded = Model()
        unbounded.add_continuous("x")
        with pytest.raises(ValueError, match="finite bounds"):
            oracle_solve(unbounded)
        wide = Model()
        for index in range(3):
            wide.add_continuous(f"x{index}", ub=1)
        with pytest.raises(ValueError, match="continuous columns"):
            oracle_solve(wide)


class TestStallMonitor:
    """The progressive stop rule, driven with synthetic callback events."""

    WINDOW = 1.0

    @pytest.fixture
    def monitor(self):
        core = highs_module._highspy_core()
        return highs_module._StallMonitor(core.cb, self.WINDOW)

    @staticmethod
    def fire(monitor, kind, running_time, objective=float("inf")):
        """Deliver one callback; return whether it asked HiGHS to stop."""
        data_out = SimpleNamespace(
            running_time=running_time, objective_function_value=objective
        )
        data_in = SimpleNamespace(user_interrupt=False)
        monitor(kind, "", data_out, data_in, None)
        return data_in.user_interrupt

    def test_no_stall_before_the_first_incumbent(self, monitor):
        improving, interrupt = monitor.kinds
        assert not self.fire(monitor, interrupt, 100.0)
        assert not self.fire(monitor, improving, 100.0, objective=50.0)
        assert not self.fire(monitor, interrupt, 100.0 + 0.9 * self.WINDOW)
        assert self.fire(monitor, interrupt, 100.0 + 1.1 * self.WINDOW)

    def test_only_a_one_percent_improvement_restarts_the_window(self, monitor):
        improving, interrupt = monitor.kinds
        self.fire(monitor, improving, 0.0, objective=100.0)
        # 0.5% better: an improving solution, but not progress.
        self.fire(monitor, improving, 0.5, objective=99.5)
        assert self.fire(monitor, interrupt, 1.1 * self.WINDOW)
        # Together with the earlier step the incumbent is now 1% better.
        self.fire(monitor, improving, 1.2, objective=99.0)
        assert not self.fire(monitor, interrupt, 1.2 + 0.9 * self.WINDOW)


@pytest.mark.slow
def test_progressive_solve_stops_once_the_warm_start_is_not_improved():
    """A MIP search of reduced lna94's Phase 1 never beats its warm start.

    The run must end one stall window (a quarter of the budget) after the
    warm start, as ``FEASIBLE``, not on the time limit.  ``run_phase1``
    repairs the seed instead of searching, so the model is solved directly.
    """
    from repro.circuits import get_circuit
    from repro.core.config import PILPConfig
    from repro.core.phase1 import build_phase1_model, phase1_seeds
    from repro.core.warm_start import solve_phase_model, warm_start_from_seeds

    config = PILPConfig.fast()
    budget = config.phase1.time_limit
    netlist = get_circuit("lna94", "reduced").netlist
    seeds = phase1_seeds(netlist, config)
    build = build_phase1_model(netlist, config, seeds)
    solution = solve_phase_model(
        build, config.phase1, warm_start_from_seeds(build, seeds)
    )
    assert solution.status is SolveStatus.FEASIBLE
    assert "stalled" in solution.message
    assert "timelimit" not in solution.message.lower().replace(" ", "")
    assert solution.solve_time < 0.6 * budget
