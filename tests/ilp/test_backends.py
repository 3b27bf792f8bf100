"""Tests of the two MILP backends, including cross-checks between them."""

from types import SimpleNamespace

import pytest

from repro.errors import SolverError
from repro.ilp import Model, SolveStatus, available_backends, get_backend
from repro.ilp.backends import highs as highs_module
from repro.ilp.backends.branch_bound import BranchAndBoundBackend
from repro.ilp.backends.highs import HighsBackend

BACKENDS = ("highs", "branch-and-bound")


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


class TestBackendRegistry:
    def test_available_backends(self):
        assert set(available_backends()) == {"highs", "branch-and-bound"}

    def test_aliases_resolve(self):
        assert isinstance(get_backend("scipy"), HighsBackend)
        assert isinstance(get_backend("bnb"), BranchAndBoundBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(SolverError):
            get_backend("gurobi")


@pytest.mark.parametrize("backend", BACKENDS)
class TestBothBackends:
    def test_knapsack_optimum(self, backend):
        # Best bundle: items with weights 4 and 6 (values 5 + 9 = 14).
        model, items = knapsack_model([3, 4, 5, 6], [4, 5, 6, 9], capacity=10)
        solution = model.solve(backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)

    def test_integer_rounding(self, backend):
        model = Model()
        n = model.add_integer("n", lb=0, ub=10)
        model.add_constraint(2 * n <= 7)
        model.set_objective(n, sense="max")
        solution = model.solve(backend=backend)
        assert solution.value(n) == pytest.approx(3.0)

    def test_infeasible_detection(self, backend):
        model = Model()
        x = model.add_continuous("x", lb=0, ub=1)
        model.add_constraint(x >= 2)
        solution = model.solve(backend=backend)
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.is_feasible

    def test_pure_lp(self, backend):
        model = Model()
        x = model.add_continuous("x", ub=4)
        y = model.add_continuous("y", ub=4)
        model.add_constraint(x + y <= 6)
        model.set_objective(x + 3 * y, sense="max")
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(14.0)

    def test_minimisation(self, backend):
        model = Model()
        x = model.add_continuous("x", lb=2, ub=9)
        model.set_objective(5 * x, sense="min")
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(10.0)

    def test_equality_constraints(self, backend):
        model = Model()
        x = model.add_continuous("x", ub=10)
        y = model.add_continuous("y", ub=10)
        model.add_constraint(x + y == 7)
        model.add_constraint(x - y == 1)
        model.set_objective(x, sense="min")
        solution = model.solve(backend=backend)
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
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(3.0)
        assert solution.value(assign[(0, 0)]) == pytest.approx(1.0)


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "weights,values,capacity",
        [
            ([2, 3, 4, 5], [3, 4, 5, 6], 5),
            ([1, 2, 3, 8, 7, 4], [20, 5, 10, 40, 15, 25], 10),
            ([5, 5, 5], [10, 10, 10], 4),
        ],
    )
    def test_backends_agree_on_knapsacks(self, weights, values, capacity):
        results = []
        for backend in BACKENDS:
            model, _ = knapsack_model(weights, values, capacity)
            results.append(model.solve(backend=backend).objective)
        assert results[0] == pytest.approx(results[1])

    def test_backends_agree_on_mixed_model(self):
        objectives = []
        for backend in BACKENDS:
            model = Model()
            x = model.add_continuous("x", ub=10)
            b = model.add_binary("b")
            n = model.add_integer("n", ub=3)
            model.add_constraint(x + 4 * b + 2 * n <= 9)
            model.add_constraint(x >= n)
            model.set_objective(2 * x + 3 * b + n, sense="max")
            objectives.append(model.solve(backend=backend).objective)
        assert objectives[0] == pytest.approx(objectives[1])


class TestBranchAndBoundSpecifics:
    def test_node_limit_returns_feasible_or_limit(self):
        model, _ = knapsack_model(list(range(1, 12)), list(range(11, 0, -1)), 17)
        solution = model.solve(backend="branch-and-bound", max_nodes=3)
        assert solution.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.TIME_LIMIT,
        )

    def test_unknown_option_rejected(self):
        model, _ = knapsack_model([1, 2], [1, 2], 2)
        with pytest.raises(SolverError):
            model.solve(backend="branch-and-bound", warm_start=True)

    def test_gap_reported(self):
        model, _ = knapsack_model([3, 4, 5], [4, 5, 6], 9)
        solution = model.solve(backend="branch-and-bound")
        assert solution.gap is not None
        assert solution.gap <= 1e-6


class TestHighsSpecifics:
    def test_unknown_option_rejected(self):
        model = Model()
        model.add_continuous("x", ub=1)
        with pytest.raises(SolverError):
            model.solve(backend="highs", warm_start=True)

    def test_time_limit_is_accepted(self):
        model, _ = knapsack_model([2, 3, 4], [3, 4, 5], 6)
        solution = model.solve(backend="highs", time_limit=10.0)
        assert solution.is_feasible

    def test_node_limit_without_incumbent_is_a_limit_not_an_error(self, tiny_netlist):
        """HiGHS ends a node-capped search with ``kSolutionLimit``; with no
        incumbent that reads as ``TIME_LIMIT``, nodes counted, as in B&B."""
        from repro.core.config import PILPConfig
        from repro.core.model_builder import BuildOptions, RficModelBuilder

        options = BuildOptions(
            blurred_devices=False,
            exact_lengths=True,
        )
        model = RficModelBuilder(tiny_netlist, PILPConfig.fast(), options).build().model
        solution = model.solve(backend="highs", node_limit=20)
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.iterations == 20

    def test_missing_binding_raises_naming_it(self, monkeypatch):
        monkeypatch.setattr(highs_module, "_core", None)
        model, _ = knapsack_model([2, 3, 4], [3, 4, 5], 6)
        with pytest.raises(SolverError, match=r"scipy\.optimize\._highspy\._core"):
            HighsBackend().solve(model)


class TestWarmStarts:
    """Warm-started solves must agree with cold solves on the optimum."""

    def _model(self):
        return knapsack_model([3, 4, 5, 6], [4, 5, 6, 9], capacity=10)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_feasible_warm_start_reaches_same_optimum(self, backend):
        model, items = self._model()
        cold = model.solve(backend=backend)
        # Feasible but sub-optimal start: take only item 0.
        warm = {items[0]: 1.0, items[1]: 0.0, items[2]: 0.0, items[3]: 0.0}
        warm_solution = model.solve(backend=backend, warm_start=warm)
        assert warm_solution.status is SolveStatus.OPTIMAL
        assert warm_solution.objective == pytest.approx(cold.objective)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infeasible_warm_start_is_only_a_seed(self, backend):
        model, items = self._model()
        # Violates the capacity constraint; must not poison the result.
        warm = {item: 1.0 for item in items}
        solution = model.solve(backend=backend, warm_start=warm)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_partial_and_foreign_names_are_tolerated(self, backend):
        model, items = self._model()
        warm = {"item1": 1.0, "does_not_exist": 5.0}
        solution = model.solve(backend=backend, warm_start=warm)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)

    def test_backends_agree_on_warm_started_solves(self):
        model, items = self._model()
        warm = {items[3]: 1.0}
        objectives = {
            backend: model.solve(backend=backend, warm_start=warm).objective
            for backend in BACKENDS
        }
        assert objectives["highs"] == pytest.approx(objectives["branch-and-bound"])

    def test_progressive_solve_matches_plain_optimum(self):
        model, _ = self._model()
        plain = model.solve(backend="highs")
        progressive = model.solve(
            backend="highs", time_limit=10.0, progressive=True
        )
        assert progressive.status is SolveStatus.OPTIMAL
        assert progressive.objective == pytest.approx(plain.objective)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRepair:
    """``SolverBackend.repair`` keeps the warm start's integer choices and
    solves only the remaining LP, on a copy of the bounds."""

    def _model(self):
        model = Model("repair")
        x = model.add_continuous("x", lb=0.0, ub=10.0)
        y = model.add_binary("y")
        model.add_constraint(x <= 3 + 5 * y)
        model.set_objective(x + y, sense="max")
        return model, x, y

    def test_integer_columns_keep_the_warm_start_choice(self, backend):
        model, x, y = self._model()
        lower = model.to_standard_form().lower.copy()
        upper = model.to_standard_form().upper.copy()
        solution = get_backend(backend).repair(model, {y: 0.2, x: 7.0})
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.value(y) == 0.0
        assert solution.value(x) == pytest.approx(3.0)
        assert solution.objective == pytest.approx(3.0)
        assert solution.backend == get_backend(backend).name
        form = model.to_standard_form()
        assert (form.lower == lower).all() and (form.upper == upper).all()
        assert model.solve(backend=backend).objective == pytest.approx(9.0)

    def test_unmatched_warm_start_gives_none(self, backend):
        model, _, _ = self._model()
        assert get_backend(backend).repair(model, {"does_not_exist": 1.0}) is None

    def test_infeasible_pinned_lp_gives_none(self, backend):
        model, items = knapsack_model([3, 4, 5, 6], [4, 5, 6, 9], capacity=10)
        assert get_backend(backend).repair(model, {item: 1.0 for item in items}) is None


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
