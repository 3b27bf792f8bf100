"""Tests of the batched compile fast path and the cached standard form.

The crucial invariant: a model built through :class:`ConstraintBatch` /
:meth:`Model.add_linear_batch` must export a :class:`StandardForm` that is
*identical* (same nnz, rows, right-hand sides, bounds and objective) to the
same model built constraint-by-constraint through the expression API.  A
form is cached until the model changes, and a model that grew after an
export (compile, append, re-compile) must export the form of a fresh build.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.ilp import ConstraintBatch, Model, Sense, VarType, lin_sum
from repro.ilp.expr import LinExpr
from repro.ilp.linearize import add_equal_if_rows, equal_if


def _assert_forms_equal(first, second):
    assert first.num_variables == second.num_variables
    assert [v.name for v in first.variables] == [v.name for v in second.variables]
    np.testing.assert_array_equal(first.objective, second.objective)
    assert first.objective_constant == second.objective_constant
    np.testing.assert_array_equal(first.lower, second.lower)
    np.testing.assert_array_equal(first.upper, second.upper)
    np.testing.assert_array_equal(first.integrality, second.integrality)
    for attr in ("a_ub", "a_eq"):
        a = getattr(first, attr).tocsr().sorted_indices()
        b = getattr(second, attr).tocsr().sorted_indices()
        assert a.shape == b.shape
        assert a.nnz == b.nnz
        np.testing.assert_allclose(a.toarray(), b.toarray())
    np.testing.assert_allclose(first.b_ub, second.b_ub)
    np.testing.assert_allclose(first.b_eq, second.b_eq)
    assert first.maximize == second.maximize


# --------------------------------------------------------------------------- #
# random-model property test: batched path == legacy dict path
# --------------------------------------------------------------------------- #

coeffs = st.floats(-10.0, 10.0, allow_nan=False, width=32)
rhs_values = st.floats(-50.0, 50.0, allow_nan=False, width=32)
senses = st.sampled_from([Sense.LE, Sense.GE, Sense.EQ])

row_strategy = st.tuples(
    senses,
    st.lists(st.tuples(st.integers(0, 7), coeffs), min_size=1, max_size=6),
    rhs_values,
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(row_strategy, min_size=1, max_size=12))
# A sub-tolerance term beside a duplicate: LinExpr drops it before merging.
@example(rows=[(Sense.LE, [(0, 1.2e-14), (0, 2.2e-16)], 0.0)])
def test_batched_and_legacy_paths_produce_identical_forms(rows):
    def make_vars(model):
        variables = []
        for index in range(8):
            if index % 3 == 0:
                variables.append(model.add_binary(f"b{index}"))
            elif index % 3 == 1:
                variables.append(
                    model.add_var(f"i{index}", lb=-4, ub=9, vartype=VarType.INTEGER)
                )
            else:
                variables.append(model.add_continuous(f"x{index}", lb=-2.5, ub=7.5))
        return variables

    legacy = Model("legacy")
    legacy_vars = make_vars(legacy)
    batched = Model("batched")
    batched_vars = make_vars(batched)

    batch = ConstraintBatch()
    for sense, terms, rhs in rows:
        legacy_expr = lin_sum(
            coeff * legacy_vars[var_index] for var_index, coeff in terms
        )
        if sense is Sense.LE:
            legacy.add_constraint(legacy_expr <= rhs)
            batch.add_le(rhs, [(batched_vars[i], c) for i, c in terms])
        elif sense is Sense.GE:
            legacy.add_constraint(legacy_expr >= rhs)
            batch.add_ge(rhs, [(batched_vars[i], c) for i, c in terms])
        else:
            legacy.add_constraint(legacy_expr == rhs)
            batch.add_eq(rhs, [(batched_vars[i], c) for i, c in terms])
    batched.add_linear_batch(batch)

    objective_terms = [(0, 1.5), (2, -2.0), (5, 0.25)]
    legacy.set_objective(
        lin_sum(c * legacy_vars[i] for i, c in objective_terms) + 3.0
    )
    batched.set_objective(
        lin_sum(c * batched_vars[i] for i, c in objective_terms) + 3.0
    )

    _assert_forms_equal(legacy.to_standard_form(), batched.to_standard_form())


# --------------------------------------------------------------------------- #
# the cached standard form
# --------------------------------------------------------------------------- #


def _build_in_two_steps(export_midway: bool) -> "Model":
    model = Model("two_steps")
    x = model.add_continuous("x", lb=0, ub=10)
    y = model.add_var("y", lb=0, ub=5, vartype=VarType.INTEGER)
    model.add_constraint(x + 2 * y <= 8, name="first")
    model.set_objective(x + y, sense="max")
    if export_midway:
        model.to_standard_form()  # prime the cache
    b = model.add_binary("b")
    batch = ConstraintBatch()
    batch.add_ge(1.0, [(x, 1.0), (b, 3.0)], name="second")
    batch.add_eq(2.0, [(y, 1.0), (b, -1.0)], name="third")
    model.add_linear_batch(batch)
    model.add_constraint(x - y >= -4, name="fourth")
    return model


def test_append_after_export_matches_fresh_build():
    grown = _build_in_two_steps(export_midway=True)
    fresh = _build_in_two_steps(export_midway=False)
    _assert_forms_equal(grown.to_standard_form(), fresh.to_standard_form())


def test_unchanged_model_reuses_cached_form():
    model = _build_in_two_steps(export_midway=True)
    first = model.to_standard_form()
    assert model.to_standard_form() is first


def test_objective_change_drops_the_cached_form():
    model = _build_in_two_steps(export_midway=True)
    first = model.to_standard_form()
    x = model.get_var("x")
    model.set_objective(5 * x, sense="min")
    second = model.to_standard_form()
    assert second is not first
    assert second.objective[x.index] == 5.0
    # The constraint matrices did not change, only the objective vector.
    np.testing.assert_allclose(first.a_ub.toarray(), second.a_ub.toarray())


@pytest.mark.parametrize("change", ["add_var", "add_constraint", "add_linear_batch"])
def test_every_model_change_drops_the_cached_form(change):
    model = _build_in_two_steps(export_midway=True)
    first = model.to_standard_form()
    x = model.get_var("x")
    if change == "add_var":
        model.add_binary("late")
    elif change == "add_constraint":
        model.add_constraint(x <= 7, name="late")
    else:
        batch = ConstraintBatch()
        batch.add_le(7.0, [(x, 1.0)], name="late")
        model.add_linear_batch(batch)
    second = model.to_standard_form()
    assert second is not first
    assert model.to_standard_form() is second


def test_solve_after_append_sees_the_new_row():
    model = Model("grow")
    x = model.add_continuous("x", lb=0, ub=10)
    model.set_objective(x, sense="max")
    first = model.solve()
    assert first.objective == pytest.approx(10.0)
    model.add_constraint(x <= 4, name="cap")
    second = model.solve()
    assert second.objective == pytest.approx(4.0)


# --------------------------------------------------------------------------- #
# batch semantics
# --------------------------------------------------------------------------- #


def test_batch_merges_duplicate_columns_like_linexpr():
    legacy = Model("legacy")
    x = legacy.add_continuous("x", ub=5)
    legacy.add_constraint(LinExpr({x: 1.0}) + LinExpr({x: 2.0}) <= 4)

    batched = Model("batched")
    xb = batched.add_continuous("x", ub=5)
    batch = ConstraintBatch()
    batch.add_le(4.0, [(xb, 1.0), (xb, 2.0)])
    batched.add_linear_batch(batch)

    _assert_forms_equal(legacy.to_standard_form(), batched.to_standard_form())


def test_batch_rejects_foreign_columns():
    model = Model("target")
    model.add_continuous("x")
    other = Model("other")
    o1 = other.add_continuous("o1")
    other.add_continuous("o2")
    far = other.add_continuous("o3")
    batch = ConstraintBatch()
    batch.add_le(1.0, [(far, 1.0)])
    with pytest.raises(ModelError):
        model.add_linear_batch(batch)


def test_materialised_constraints_match_batch_rows():
    model = Model("materialise")
    x = model.add_continuous("x", ub=9)
    y = model.add_binary("y")
    batch = ConstraintBatch()
    batch.add_le(3.0, [(x, 1.0), (y, 2.0)], name="row0")
    batch.add_eq(1.0, [(y, 1.0)], name="row1")
    model.add_linear_batch(batch)
    constraints = model.constraints
    assert [c.name for c in constraints] == ["row0", "row1"]
    assert model.num_constraints == 2
    satisfied = {x: 1.0, y: 0.0}
    assert constraints[0].is_satisfied(satisfied)
    assert not constraints[1].is_satisfied(satisfied)


def test_batch_is_snapshotted_at_ingestion():
    model = Model("snapshot")
    x = model.add_continuous("x", ub=5)
    batch = ConstraintBatch()
    batch.add_le(4.0, [(x, 1.0)])
    model.add_linear_batch(batch)
    before = model.to_standard_form()
    # Mutating the caller's batch afterwards must not affect the model.
    batch.add_le(1.0, [(x, 1.0)])
    assert model.num_constraints == 1
    after = model.to_standard_form()
    assert after.a_ub.shape == before.a_ub.shape
    # Re-ingesting adds only the batch's current rows, counted correctly.
    model.add_linear_batch(batch)
    assert model.num_constraints == 3
    assert model.to_standard_form().a_ub.shape[0] == 3


def test_objective_property_returns_a_copy():
    model = Model("objcopy")
    x = model.add_continuous("x", ub=5)
    model.set_objective(2 * x, sense="max")
    first = model.to_standard_form()
    leaked = model.objective
    leaked += 10 * x  # must not mutate the model's objective
    assert model.objective.coeffs[x] == pytest.approx(2.0)
    assert model.to_standard_form().objective[x.index] == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
# batched linearisation rows == their expression-API counterparts
# --------------------------------------------------------------------------- #


#: ``(x, y, z) -> (lhs, rhs, lhs as batch parts, rhs as batch parts)``.
_EQUAL_IF_CASES = {
    "variables": lambda x, y, z: (x, y, x, y),
    "difference": lambda x, y, z: (z, y - x, z, [(y, 1.0), (x, -1.0)]),
    "shared_column": lambda x, y, z: (
        2.0 * x + y, x - z, [(x, 2.0), (y, 1.0)], [(x, 1.0), (z, -1.0)]
    ),
    "cancelling_column": lambda x, y, z: (
        x + y, x - z, [(x, 1.0), (y, 1.0)], [(x, 1.0), (z, -1.0)]
    ),
    "constants": lambda x, y, z: (x + 3.5, y - 1.25, x + 3.5, y - 1.25),
}


@pytest.mark.parametrize("name", ["", "row"])
@pytest.mark.parametrize("case", sorted(_EQUAL_IF_CASES))
def test_equal_if_rows_match_equal_if(case, name):
    def make(model):
        switch = model.add_binary("s")
        x, y, z = (model.add_continuous(v, ub=50) for v in "xyz")
        return switch, _EQUAL_IF_CASES[case](x, y, z)

    legacy = Model("legacy")
    switch, (lhs, rhs, _, _) = make(legacy)
    equal_if(legacy, switch, lhs, rhs, 40.0, name)

    batched = Model("batched")
    switch, (_, _, lhs_parts, rhs_parts) = make(batched)
    batch = ConstraintBatch()
    add_equal_if_rows(batch, switch, lhs_parts, rhs_parts, 40.0, name)
    batched.add_linear_batch(batch)

    first, second = legacy.to_standard_form(), batched.to_standard_form()
    _assert_forms_equal(first, second)
    # Byte-identical, not merely close.
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(first.a_ub, attr), getattr(second.a_ub, attr))
    np.testing.assert_array_equal(first.b_ub, second.b_ub)

    def rows(model):
        return [
            (c.name, [(v.name, k) for v, k in c.expr.coeffs.items()], c.expr.constant)
            for c in model.constraints
        ]

    # Same names, term order, coefficients and constants row by row.
    assert rows(legacy) == rows(batched)


def test_equal_if_rows_require_a_binary_switch():
    model = Model("switch")
    x = model.add_continuous("x", ub=5)
    with pytest.raises(ModelError):
        add_equal_if_rows(ConstraintBatch(), x, x, x, 10.0)
