"""Batched constraint compilation — the fast path of the modelling layer.

The dict-based :class:`~repro.ilp.expr.LinExpr` API reads like the paper's
equations, but merging small per-term dictionaries dominates model build time
for the large pairwise-spacing families of Section 4.  This module provides a
complementary *compiled* path:

* :class:`ColumnExpr` — an affine expression pre-lowered to parallel
  ``(column index, coefficient)`` arrays plus a constant, built once per
  reusable sub-expression (a device edge, a segment box side),
* :class:`ConstraintBatch` — an accumulator of whole constraint rows as COO
  triplets that a :class:`~repro.ilp.model.Model` ingests in one call via
  :meth:`Model.add_linear_batch`.

A model keeps every constraint as a row of this compiled form;
:meth:`Model.add_constraint` lowers an expression-API constraint into one.
A batch row is *identical* to the row of the same constraint added through
the expression API: duplicate columns within a row are merged left-to-right
exactly like :class:`LinExpr` merges them, and coefficients below the same
drop tolerance are discarded.  A property test in the suite pins this
equivalence down (same nnz, rows, bounds and objective).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.errors import ModelError
from repro.ilp.expr import Constraint, LinExpr, Sense, Variable

#: Same drop tolerance as :class:`LinExpr`, so both paths agree bit-for-bit.
_DROP_TOL = 1.0e-15

#: A term is ``(variable, coefficient)``; a row is a sequence of terms plus a
#: constant offset folded into the right-hand side.
Term = Tuple[Variable, float]
TermsLike = Union["ColumnExpr", LinExpr, Variable, Sequence[Term]]


class ColumnExpr:
    """An affine expression lowered to column-index / coefficient arrays.

    Build one per reusable sub-expression, then combine cheaply inside a
    :class:`ConstraintBatch` row without any dictionary churn.
    """

    __slots__ = ("cols", "vals", "constant")

    def __init__(
        self,
        cols: Sequence[int] = (),
        vals: Sequence[float] = (),
        constant: float = 0.0,
    ) -> None:
        self.cols = list(cols)
        self.vals = [float(v) for v in vals]
        if len(self.cols) != len(self.vals):
            raise ModelError("ColumnExpr needs one coefficient per column")
        self.constant = float(constant)

    @staticmethod
    def lower(value: TermsLike, scale: float = 1.0) -> "ColumnExpr":
        """Lower an expression-like value to a :class:`ColumnExpr`."""
        if isinstance(value, ColumnExpr):
            if scale == 1.0:
                return value
            return ColumnExpr(
                value.cols, [scale * v for v in value.vals], scale * value.constant
            )
        if isinstance(value, Variable):
            return ColumnExpr([value.index], [scale], 0.0)
        if isinstance(value, LinExpr):
            return ColumnExpr(
                [var.index for var in value.coeffs],
                [scale * coeff for coeff in value.coeffs.values()],
                scale * value.constant,
            )
        # A plain sequence of (Variable, coefficient) pairs.
        cols = [var.index for var, _ in value]
        vals = [scale * float(coeff) for _, coeff in value]
        return ColumnExpr(cols, vals, 0.0)


def _column_terms(value: TermsLike) -> Tuple[Iterable[Tuple[int, float]], float]:
    """``value``'s ``(column, coefficient)`` pairs and constant.

    The same values :meth:`ColumnExpr.lower` gives, without building a
    :class:`ColumnExpr` per part of every row.
    """
    if isinstance(value, ColumnExpr):
        return zip(value.cols, value.vals), value.constant
    if isinstance(value, Variable):
        return ((value.index, 1.0),), 0.0
    if isinstance(value, LinExpr):
        return [(var.index, coeff) for var, coeff in value.coeffs.items()], value.constant
    return [(var.index, float(coeff)) for var, coeff in value], 0.0


class ConstraintBatch:
    """Accumulates constraint rows as COO triplets for one bulk insertion.

    Rows keep their insertion order, so a model built through a batch is
    row-for-row identical to the same model built constraint-by-constraint.
    """

    def __init__(self) -> None:
        self._row_cols: List[List[int]] = []
        self._row_vals: List[List[float]] = []
        self._senses: List[Sense] = []
        self._rhs: List[float] = []
        self._names: List[str] = []

    def __len__(self) -> int:
        return len(self._senses)

    @property
    def names(self) -> Sequence[str]:
        return tuple(self._names)

    # ------------------------------------------------------------------ #
    # row construction
    # ------------------------------------------------------------------ #

    def add(
        self,
        sense: Sense,
        rhs: float,
        *parts: TermsLike,
        name: str = "",
    ) -> None:
        """Append the row ``sum(parts) (sense) rhs``.

        ``parts`` are combined left to right; duplicate columns merge by
        addition in encounter order (matching the dict path) and constants
        carried by the parts are folded into the right-hand side.
        """
        if not isinstance(sense, Sense):
            raise ModelError(f"invalid constraint sense: {sense!r}")
        cols: List[int] = []
        vals: List[float] = []
        offset = 0.0
        seen: Dict[int, int] = {}
        merged = False
        for part in parts:
            terms, constant = _column_terms(part)
            offset += constant
            for col, val in terms:
                if abs(val) <= _DROP_TOL:
                    # LinExpr drops such a term before it merges.
                    continue
                slot = seen.get(col)
                if slot is None:
                    seen[col] = len(cols)
                    cols.append(col)
                    vals.append(val)
                else:
                    vals[slot] += val
                    merged = True
        # Merged duplicates can also cancel below the tolerance.
        if merged and any(abs(v) <= _DROP_TOL for v in vals):
            kept = [(c, v) for c, v in zip(cols, vals) if abs(v) > _DROP_TOL]
            cols = [c for c, _ in kept]
            vals = [v for _, v in kept]
        self._row_cols.append(cols)
        self._row_vals.append(vals)
        self._senses.append(sense)
        self._rhs.append(float(rhs) - offset)
        self._names.append(name)

    def add_le(self, rhs: float, *parts: TermsLike, name: str = "") -> None:
        """Append ``sum(parts) <= rhs``."""
        self.add(Sense.LE, rhs, *parts, name=name)

    def add_ge(self, rhs: float, *parts: TermsLike, name: str = "") -> None:
        """Append ``sum(parts) >= rhs``."""
        self.add(Sense.GE, rhs, *parts, name=name)

    def add_eq(self, rhs: float, *parts: TermsLike, name: str = "") -> None:
        """Append ``sum(parts) == rhs``."""
        self.add(Sense.EQ, rhs, *parts, name=name)

    # ------------------------------------------------------------------ #
    # consumption (used by Model)
    # ------------------------------------------------------------------ #

    def iter_rows(self) -> Iterable[Tuple[Sense, List[int], List[float], float, str]]:
        """Iterate rows as ``(sense, cols, vals, rhs, name)`` tuples."""
        return zip(self._senses, self._row_cols, self._row_vals, self._rhs, self._names)


def rows_to_constraints(rows, variables: Sequence[Variable]) -> list:
    """Materialise compiled ``(sense, cols, vals, rhs, name)`` rows.

    Backs ``Model.constraints``, which correctness checks read; not a hot
    path.
    """
    constraints = []
    for sense, cols, vals, rhs, name in rows:
        expr = LinExpr({variables[col]: val for col, val in zip(cols, vals)}, -rhs)
        constraints.append(Constraint(expr, sense, name))
    return constraints
