"""Linear expressions, variables and constraints for the MILP modelling layer.

The paper's formulation (Sections 4 and 5) is a mixed integer linear program.
Because the reproduction cannot depend on Gurobi, this module implements a
small but complete modelling language in the spirit of PuLP / gurobipy:

* :class:`Variable` — a continuous, integer or binary decision variable,
* :class:`LinExpr` — an affine expression ``sum(coeff * var) + constant``,
* :class:`Constraint` — ``expr <= rhs``, ``expr >= rhs`` or ``expr == rhs``.

Expressions support natural Python arithmetic (``2 * x + y - 3``) and the
comparison operators build constraints, so model-building code reads very
close to the equations in the paper.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, Mapping, Union

from repro.errors import ModelError

Number = Union[int, float]

#: Tolerance used when checking integrality or constraint satisfaction of
#: solved values.  The MILP solver works in double precision; 1e-6 absolute is
#: the customary default (it matches Gurobi's ``IntFeasTol``).
DEFAULT_TOLERANCE = 1.0e-6


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Sense(enum.Enum):
    """Relational sense of a constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Variable:
    """A single decision variable owned by a :class:`~repro.ilp.model.Model`.

    Variables are created through :meth:`Model.add_var` (or the convenience
    wrappers ``add_binary`` / ``add_continuous``); they
    should not be instantiated directly by user code.

    Parameters
    ----------
    name:
        Unique (per model) human-readable identifier, used in reports.
    index:
        Position of the variable in the model's column ordering.
    lb, ub:
        Lower / upper bounds.  ``-inf`` / ``+inf`` are allowed for
        continuous and integer variables.
    vartype:
        One of :class:`VarType`.
    """

    __slots__ = ("name", "index", "lb", "ub", "vartype", "_model_id")

    def __init__(
        self,
        name: str,
        index: int,
        lb: float,
        ub: float,
        vartype: VarType,
        model_id: int,
    ) -> None:
        if not name:
            raise ModelError("variable name must be a non-empty string")
        if math.isnan(lb) or math.isnan(ub):
            raise ModelError(f"variable {name!r} has NaN bounds")
        if lb > ub:
            raise ModelError(
                f"variable {name!r} has contradictory bounds [{lb}, {ub}]"
            )
        self.name = name
        self.index = index
        self.lb = float(lb)
        self.ub = float(ub)
        self.vartype = vartype
        self._model_id = model_id

    # -- introspection -----------------------------------------------------

    @property
    def is_integer(self) -> bool:
        """True for integer and binary variables."""
        return self.vartype in (VarType.INTEGER, VarType.BINARY)

    @property
    def is_binary(self) -> bool:
        """True only for binary variables."""
        return self.vartype is VarType.BINARY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Variable({self.name!r}, lb={self.lb}, ub={self.ub}, "
            f"type={self.vartype.value})"
        )

    def __hash__(self) -> int:
        return hash((self._model_id, self.index))

    def __eq__(self, other: object):  # type: ignore[override]
        # ``==`` builds a constraint against expressions/numbers, mirroring
        # the behaviour of mainstream modelling libraries.  Identity of the
        # variable object itself is available through ``is``.
        if isinstance(other, Variable) and other is self:
            return True
        return self.to_expr() == other

    def __ne__(self, other: object):  # type: ignore[override]
        raise ModelError("'!=' constraints are not expressible in a MILP")

    # -- conversion and arithmetic ----------------------------------------

    def to_expr(self) -> "LinExpr":
        """Return this variable as a single-term :class:`LinExpr`."""
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: "ExprLike") -> "LinExpr":
        return self.to_expr() + other

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self.to_expr() + other

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self.to_expr() - other

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        return (-1.0) * self.to_expr() + other

    def __mul__(self, other: Number) -> "LinExpr":
        return self.to_expr() * other

    def __rmul__(self, other: Number) -> "LinExpr":
        return self.to_expr() * other

    def __truediv__(self, other: Number) -> "LinExpr":
        return self.to_expr() / other

    def __neg__(self) -> "LinExpr":
        return self.to_expr() * -1.0

    def __le__(self, other: "ExprLike") -> "Constraint":
        return self.to_expr() <= other

    def __ge__(self, other: "ExprLike") -> "Constraint":
        return self.to_expr() >= other


class LinExpr:
    """An affine expression ``sum_i coeff_i * var_i + constant``.

    Binary arithmetic returns new expressions, so shared sub-expressions are
    never mutated behind a caller's back.  The *in-place* operators
    (``+=`` / ``-=``) mutate the accumulator instead of copying it, which
    makes building a sum of ``n`` terms linear rather than quadratic — use
    them (or :func:`lin_sum`) for accumulation loops and treat the accumulator
    as exclusively owned until the loop finishes.  Coefficients with magnitude
    below 1e-15 are dropped to keep the expression sparse.
    """

    __slots__ = ("coeffs", "constant")

    _DROP_TOL = 1.0e-15

    def __init__(
        self,
        coeffs: Mapping[Variable, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        cleaned: Dict[Variable, float] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if not isinstance(var, Variable):
                    raise ModelError(
                        f"LinExpr keys must be Variables, got {type(var).__name__}"
                    )
                value = float(coeff)
                if math.isnan(value):
                    raise ModelError(f"NaN coefficient for variable {var.name!r}")
                if abs(value) > self._DROP_TOL:
                    cleaned[var] = value
        constant = float(constant)
        if math.isnan(constant):
            raise ModelError("NaN constant in linear expression")
        self.coeffs = cleaned
        self.constant = constant

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_value(value: "ExprLike") -> "LinExpr":
        """Coerce a number, Variable or LinExpr to a LinExpr."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value.to_expr()
        if isinstance(value, (int, float)):
            return LinExpr({}, float(value))
        raise ModelError(
            f"cannot interpret {type(value).__name__} as a linear expression"
        )

    @staticmethod
    def sum(terms: Iterable["ExprLike"]) -> "LinExpr":
        """Sum an iterable of expressions, variables and numbers."""
        return lin_sum(terms)

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "ExprLike", sign: float) -> "LinExpr":
        other_expr = LinExpr.from_value(other)
        coeffs = dict(self.coeffs)
        for var, coeff in other_expr.coeffs.items():
            coeffs[var] = coeffs.get(var, 0.0) + sign * coeff
        return LinExpr(coeffs, self.constant + sign * other_expr.constant)

    def _combine_inplace(self, other: "ExprLike", sign: float) -> "LinExpr":
        """Accumulate ``other`` into this expression without copying.

        Only safe on an accumulator this code path exclusively owns; the
        public ``+=`` / ``-=`` operators route here so that summation loops
        cost O(total terms) instead of O(terms^2).
        """
        other_expr = LinExpr.from_value(other)
        coeffs = self.coeffs
        for var, coeff in other_expr.coeffs.items():
            merged = coeffs.get(var, 0.0) + sign * coeff
            if abs(merged) > self._DROP_TOL:
                coeffs[var] = merged
            elif var in coeffs:
                del coeffs[var]
        self.constant += sign * other_expr.constant
        return self

    def __add__(self, other: "ExprLike") -> "LinExpr":
        return self._combine(other, 1.0)

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self._combine(other, 1.0)

    def __iadd__(self, other: "ExprLike") -> "LinExpr":
        return self._combine_inplace(other, 1.0)

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self._combine(other, -1.0)

    def __isub__(self, other: "ExprLike") -> "LinExpr":
        return self._combine_inplace(other, -1.0)

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        return (self * -1.0)._combine(other, 1.0)

    def __mul__(self, factor: Number) -> "LinExpr":
        if isinstance(factor, (Variable, LinExpr)):
            raise ModelError(
                "products of expressions are non-linear; use "
                "repro.ilp.linearize helpers instead"
            )
        factor = float(factor)
        return LinExpr(
            {var: coeff * factor for var, coeff in self.coeffs.items()},
            self.constant * factor,
        )

    def __rmul__(self, factor: Number) -> "LinExpr":
        return self.__mul__(factor)

    def __truediv__(self, divisor: Number) -> "LinExpr":
        if isinstance(divisor, (Variable, LinExpr)):
            raise ModelError("division by an expression is non-linear")
        divisor = float(divisor)
        if divisor == 0.0:
            raise ZeroDivisionError("division of a linear expression by zero")
        return self.__mul__(1.0 / divisor)

    def __neg__(self) -> "LinExpr":
        return self.__mul__(-1.0)

    # -- comparisons build constraints --------------------------------------

    def __le__(self, other: "ExprLike") -> "Constraint":
        return Constraint(self - other, Sense.LE)

    def __ge__(self, other: "ExprLike") -> "Constraint":
        return Constraint(self - other, Sense.GE)

    def __eq__(self, other: object):  # type: ignore[override]
        return Constraint(self - LinExpr.from_value(other), Sense.EQ)

    def __ne__(self, other: object):  # type: ignore[override]
        raise ModelError("'!=' constraints are not expressible in a MILP")

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation ----------------------------------------------------------

    def value(self, assignment: Mapping[Variable, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        total = self.constant
        for var, coeff in self.coeffs.items():
            total += coeff * assignment[var]
        return total

    def variables(self) -> list[Variable]:
        """Return the variables appearing with a non-zero coefficient."""
        return list(self.coeffs.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{coeff:+g}*{var.name}" for var, coeff in self.coeffs.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


class Constraint:
    """A linear constraint in the canonical form ``expr (<=|>=|==) 0``.

    The right-hand side is folded into the expression's constant term when the
    constraint is created from a comparison, so ``x + y <= 3`` is stored as the
    expression ``x + y - 3`` with sense ``LE``.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: Sense, name: str = "") -> None:
        if not isinstance(expr, LinExpr):
            raise ModelError("constraint expression must be a LinExpr")
        if not isinstance(sense, Sense):
            raise ModelError(f"invalid constraint sense: {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    def with_name(self, name: str) -> "Constraint":
        """Return the same constraint carrying a descriptive name."""
        return Constraint(self.expr, self.sense, name)

    def is_satisfied(
        self,
        assignment: Mapping[Variable, float],
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> bool:
        """Check whether an assignment satisfies this constraint."""
        value = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return value <= tolerance
        if self.sense is Sense.GE:
            return value >= -tolerance
        return abs(value) <= tolerance

    def violation(self, assignment: Mapping[Variable, float]) -> float:
        """Return the non-negative amount by which the constraint is violated."""
        value = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return max(0.0, value)
        if self.sense is Sense.GE:
            return max(0.0, -value)
        return abs(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense.value} 0{label})"


ExprLike = Union[Number, Variable, LinExpr]


def lin_sum(terms: Iterable[ExprLike]) -> LinExpr:
    """Sum expressions in linear time.

    Unlike the builtin ``sum()``, which copies the accumulator on every
    ``+`` and is therefore quadratic in the number of terms, this accumulates
    into a single dictionary.  It is the preferred spelling in hot
    model-building loops.
    """
    total: Dict[Variable, float] = {}
    constant = 0.0
    for term in terms:
        if isinstance(term, Variable):
            total[term] = total.get(term, 0.0) + 1.0
            continue
        if isinstance(term, (int, float)):
            constant += term
            continue
        expr = LinExpr.from_value(term)
        constant += expr.constant
        for var, coeff in expr.coeffs.items():
            total[var] = total.get(var, 0.0) + coeff
    return LinExpr(total, constant)
