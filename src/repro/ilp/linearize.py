"""Linearisation helpers used throughout the paper's ILP formulation.

The formulation in Section 4 of the paper repeatedly needs constructs that are
not directly linear:

* equation (6) multiplies a 0-1 direction variable with a coordinate
  difference (binary x continuous product),
* equation (15) switches a pad coordinate between a discrete boundary value
  and a free continuous value depending on a 0-1 variable,
* equations (16)-(20) use the classic big-M disjunction for non-overlap,
* equations (24)-(25) need absolute values and a maximum.

The paper points to a textbook [13] for the standard transformations; this
module implements them once so that the model builders read like the paper's
equations.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.errors import ModelError
from repro.ilp.compile import ColumnExpr, ConstraintBatch, TermsLike
from repro.ilp.expr import Constraint, ExprLike, LinExpr, Variable
from repro.ilp.model import Model


def _require_binary(var: Variable, role: str) -> None:
    if not var.is_binary:
        raise ModelError(f"{role} must be a binary variable, got {var!r}")


def equal_if(
    model: Model,
    switch: Variable,
    lhs: ExprLike,
    rhs: ExprLike,
    big_m: float | None = None,
    name: str = "",
) -> List[Constraint]:
    """Add ``lhs == rhs`` enforced only when ``switch`` is 1.

    Implemented with the classic pair of big-M inequalities::

        lhs - rhs <=  M (1 - switch)
        rhs - lhs <=  M (1 - switch)

    When ``switch`` is 0 the constraints are vacuous.
    """
    _require_binary(switch, "switch")
    big_m = model.DEFAULT_BIG_M if big_m is None else float(big_m)
    lhs_expr = LinExpr.from_value(lhs)
    rhs_expr = LinExpr.from_value(rhs)
    slack = big_m * (1 - switch)
    c1 = model.add_constraint(lhs_expr - rhs_expr <= slack, name=f"{name}.eqif_le" if name else "")
    c2 = model.add_constraint(rhs_expr - lhs_expr <= slack, name=f"{name}.eqif_ge" if name else "")
    return [c1, c2]


def add_equal_if_rows(
    batch: ConstraintBatch,
    switch: Variable,
    lhs: TermsLike,
    rhs: TermsLike,
    big_m: float,
    name: str = "",
) -> None:
    """Append :func:`equal_if`'s two rows to ``batch`` (the batched fast path).

    The rows, their term order and their names are those :func:`equal_if`
    adds, so a model built either way lowers to the same standard form.
    """
    _require_binary(switch, "switch")
    big_m = float(big_m)
    lhs_cols = ColumnExpr.lower(lhs)
    rhs_cols = ColumnExpr.lower(rhs)
    relax = [(switch, big_m)]
    batch.add_le(
        big_m, lhs_cols, ColumnExpr.lower(rhs_cols, -1.0), relax,
        name=f"{name}.eqif_le" if name else "",
    )
    batch.add_le(
        big_m, rhs_cols, ColumnExpr.lower(lhs_cols, -1.0), relax,
        name=f"{name}.eqif_ge" if name else "",
    )


def leq_if(
    model: Model,
    switch: Variable,
    lhs: ExprLike,
    rhs: ExprLike,
    big_m: float | None = None,
    name: str = "",
) -> Constraint:
    """Add ``lhs <= rhs`` enforced only when ``switch`` is 1."""
    _require_binary(switch, "switch")
    big_m = model.DEFAULT_BIG_M if big_m is None else float(big_m)
    lhs_expr = LinExpr.from_value(lhs)
    rhs_expr = LinExpr.from_value(rhs)
    return model.add_constraint(
        lhs_expr - rhs_expr <= big_m * (1 - switch),
        name=f"{name}.leqif" if name else "",
    )


def geq_if(
    model: Model,
    switch: Variable,
    lhs: ExprLike,
    rhs: ExprLike,
    big_m: float | None = None,
    name: str = "",
) -> Constraint:
    """Add ``lhs >= rhs`` enforced only when ``switch`` is 1."""
    _require_binary(switch, "switch")
    big_m = model.DEFAULT_BIG_M if big_m is None else float(big_m)
    lhs_expr = LinExpr.from_value(lhs)
    rhs_expr = LinExpr.from_value(rhs)
    return model.add_constraint(
        rhs_expr - lhs_expr <= big_m * (1 - switch),
        name=f"{name}.geqif" if name else "",
    )


def product_binary_continuous(
    model: Model,
    binary: Variable,
    continuous: ExprLike,
    lower: float,
    upper: float,
    name: str = "",
) -> Variable:
    """Return a variable equal to ``binary * continuous``.

    ``lower`` and ``upper`` must bound the continuous expression.  The
    standard McCormick-style linearisation is used::

        z <= upper * binary
        z >= lower * binary
        z <= continuous - lower * (1 - binary)
        z >= continuous - upper * (1 - binary)
    """
    _require_binary(binary, "binary")
    if lower > upper:
        raise ModelError(f"invalid bounds for product linearisation: [{lower}, {upper}]")
    expr = LinExpr.from_value(continuous)
    z_name = name or f"_prod_{binary.name}"
    z = model.add_continuous(z_name, lb=min(lower, 0.0), ub=max(upper, 0.0))
    model.add_constraint(z <= upper * binary, name=f"{z_name}.ub_sel")
    model.add_constraint(z >= lower * binary, name=f"{z_name}.lb_sel")
    model.add_constraint(z <= expr - lower * (1 - binary), name=f"{z_name}.ub_track")
    model.add_constraint(z >= expr - upper * (1 - binary), name=f"{z_name}.lb_track")
    return z


def absolute_value(
    model: Model,
    expr: ExprLike,
    bound: float,
    name: str = "",
    exact: bool = True,
) -> Variable:
    """Return a variable representing ``|expr|``.

    With ``exact=False`` only the envelope ``a >= expr`` and ``a >= -expr`` is
    added, which is sufficient when the absolute value is being minimised
    (e.g. the unmatched-length terms in equation (24) of the paper).  With
    ``exact=True`` an auxiliary binary selects the sign so the value is exact
    even when it is not pushed down by the objective.
    """
    value = LinExpr.from_value(expr)
    abs_name = name or "_abs"
    abs_var = model.add_continuous(abs_name, lb=0.0, ub=bound)
    model.add_constraint(abs_var >= value, name=f"{abs_name}.pos")
    model.add_constraint(abs_var >= -1.0 * value, name=f"{abs_name}.neg")
    if exact:
        sign = model.add_binary(f"{abs_name}.sign")
        # sign = 1 -> abs == expr, sign = 0 -> abs == -expr
        equal_if(model, sign, abs_var, value, big_m=2.0 * bound, name=f"{abs_name}.sel_pos")
        negative_sign = model.add_binary(f"{abs_name}.sign_neg")
        model.add_constraint(sign + negative_sign == 1, name=f"{abs_name}.sign_sum")
        equal_if(
            model,
            negative_sign,
            abs_var,
            -1.0 * value,
            big_m=2.0 * bound,
            name=f"{abs_name}.sel_neg",
        )
    return abs_var


def max_envelope(
    model: Model,
    exprs: Iterable[ExprLike],
    name: str = "",
    upper: float | None = None,
) -> Variable:
    """Return a variable constrained to be ``>= max(exprs)``.

    This is the construct used for ``l_u,max`` in equation (25) and for
    ``n_b,max`` in the objective: the variable is an upper envelope that the
    objective then minimises, so at the optimum it equals the maximum.
    """
    exprs = list(exprs)
    if not exprs:
        raise ModelError("max_envelope requires at least one expression")
    env_name = name or "_max"
    ub = float("inf") if upper is None else float(upper)
    env = model.add_continuous(env_name, lb=-float("inf"), ub=ub)
    for idx, expr in enumerate(exprs):
        model.add_constraint(env >= LinExpr.from_value(expr), name=f"{env_name}.ge[{idx}]")
    return env


def exactly_one(model: Model, binaries: Sequence[Variable], name: str = "") -> Constraint:
    """Add the SOS1-style constraint ``sum(binaries) == 1``."""
    for var in binaries:
        _require_binary(var, "member of exactly_one")
    return model.add_constraint(
        LinExpr.sum(binaries) == 1, name=name or "_exactly_one"
    )


def at_most_one(model: Model, binaries: Sequence[Variable], name: str = "") -> Constraint:
    """Add ``sum(binaries) <= 1``."""
    for var in binaries:
        _require_binary(var, "member of at_most_one")
    return model.add_constraint(
        LinExpr.sum(binaries) <= 1, name=name or "_at_most_one"
    )


def disjunction_at_least_one(
    model: Model,
    selectors: Sequence[Variable],
    name: str = "",
) -> Constraint:
    """Add the paper's constraint (20): at most ``len-1`` selectors may relax.

    Each selector binary relaxes one of the disjunctive big-M constraints; by
    requiring their sum to be at most ``len(selectors) - 1`` at least one of
    the alternatives is enforced.
    """
    for var in selectors:
        _require_binary(var, "disjunction selector")
    return model.add_constraint(
        LinExpr.sum(selectors) <= len(selectors) - 1,
        name=name or "_disjunction",
    )
