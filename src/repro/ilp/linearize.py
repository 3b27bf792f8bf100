"""Linearisation helpers used throughout the paper's ILP formulation.

The formulation in Section 4 of the paper repeatedly needs constructs that are
not directly linear.  The model builder takes two of the standard
transformations (the paper points to a textbook [13]) from here:

* :func:`equal_if` enforces an equality only when a 0-1 variable is 1: the
  pad coordinates of equation (15), and, through its batched twin
  :func:`add_equal_if_rows`, the direction rows of equation (6);
* :func:`exactly_one` makes a set of 0-1 variables pick one member (a pad's
  side).
"""

from __future__ import annotations

from typing import List, Sequence

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


def exactly_one(model: Model, binaries: Sequence[Variable], name: str = "") -> Constraint:
    """Add the SOS1-style constraint ``sum(binaries) == 1``."""
    for var in binaries:
        _require_binary(var, "member of exactly_one")
    return model.add_constraint(
        LinExpr.sum(binaries) == 1, name=name or "_exactly_one"
    )
