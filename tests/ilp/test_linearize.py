"""Tests of the linearisation helpers the model builder uses."""

import pytest

from repro.errors import ModelError
from repro.ilp import Model, equal_if, exactly_one


class TestEqualIf:
    def test_active_switch_forces_equality(self):
        model = Model()
        switch = model.add_binary("s")
        x = model.add_continuous("x", ub=100)
        equal_if(model, switch, x, 42.0, big_m=200)
        model.add_constraint(switch >= 1)
        model.set_objective(x, sense="min")
        solution = model.solve()
        assert solution.value(x) == pytest.approx(42.0)

    def test_inactive_switch_leaves_value_free(self):
        model = Model()
        switch = model.add_binary("s")
        x = model.add_continuous("x", ub=100)
        equal_if(model, switch, x, 42.0, big_m=200)
        model.add_constraint(switch <= 0)
        model.set_objective(x, sense="max")
        solution = model.solve()
        assert solution.value(x) == pytest.approx(100.0)

    def test_requires_binary_switch(self):
        model = Model()
        not_binary = model.add_continuous("c", ub=1)
        x = model.add_continuous("x")
        with pytest.raises(ModelError):
            equal_if(model, not_binary, x, 1.0)


class TestCardinalityHelpers:
    def test_exactly_one(self):
        model = Model()
        binaries = [model.add_binary(f"b{i}") for i in range(4)]
        exactly_one(model, binaries)
        model.set_objective(sum((i + 1) * b for i, b in enumerate(binaries)), sense="max")
        solution = model.solve()
        assert sum(solution.value(b) for b in binaries) == pytest.approx(1.0)
        assert solution.value(binaries[3]) == pytest.approx(1.0)

    def test_non_binary_members_rejected(self):
        model = Model()
        c = model.add_continuous("c", ub=1)
        with pytest.raises(ModelError):
            exactly_one(model, [c])
