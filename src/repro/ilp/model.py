"""The MILP :class:`Model` container and its standard-form export.

A model owns a set of variables, a set of linear constraints and a linear
objective.  It can be exported to the standard matrix form

    minimise    c^T x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lb <= x <= ub
                x_i integer for i in `integrality`

which is what the HiGHS solver (:mod:`repro.ilp.backends.highs`) consumes.

The model keeps every constraint as one compiled row
``(sense, cols, vals, rhs, name)``, in insertion order.
:meth:`Model.add_constraint` lowers a :class:`Constraint` into such a row
when it is added; :meth:`Model.add_linear_batch` ingests the rows of a
pre-lowered :class:`~repro.ilp.compile.ConstraintBatch` in bulk, which is
the hot model builders' fast path.  ``to_standard_form()`` assembles the
matrices from the rows in one pass and caches the result until the model
changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.errors import ModelError
from repro.ilp.backends.highs import HighsBackend
from repro.ilp.compile import ConstraintBatch, rows_to_constraints
from repro.ilp.expr import (
    DEFAULT_TOLERANCE,
    Constraint,
    ExprLike,
    LinExpr,
    Sense,
    Variable,
    VarType,
)
from repro.ilp.solution import Solution

_model_counter = itertools.count()

#: A warm start maps variables (or their names) to suggested values.
WarmStart = Mapping[Union[Variable, str], float]

#: A compiled constraint row: ``sum(vals[k] * x[cols[k]]) (sense) rhs``.
Row = Tuple[Sense, Tuple[int, ...], Tuple[float, ...], float, str]


@dataclass
class StandardForm:
    """Matrix representation of a model, consumed by the solver.

    All arrays are indexed consistently with ``variables``: column ``j`` of the
    constraint matrices corresponds to ``variables[j]``.
    """

    variables: List[Variable]
    objective: np.ndarray
    objective_constant: float
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    maximize: bool

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return int(self.a_ub.shape[0] + self.a_eq.shape[0])

    @property
    def num_integer_variables(self) -> int:
        return int(np.count_nonzero(self.integrality))


class Model:
    """A mixed integer linear programming model.

    Example
    -------
    >>> from repro.ilp import Model
    >>> m = Model("demo")
    >>> x = m.add_continuous("x", lb=0, ub=10)
    >>> b = m.add_binary("b")
    >>> m.add_constraint(x + 4 * b <= 8, name="cap")
    >>> m.set_objective(x + 2 * b, sense="max")
    >>> solution = m.solve()
    >>> round(solution.objective, 6)
    8.0
    """

    #: Default big-M constant used by linearisation helpers when the caller
    #: does not provide a tighter bound.  Layout coordinates in this project
    #: are bounded by the layout area (at most a few thousand micrometres),
    #: so 1e5 is safely larger than any honest bound while staying small
    #: enough not to wreck LP conditioning.
    DEFAULT_BIG_M = 1.0e5

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._id = next(_model_counter)
        self._variables: List[Variable] = []
        self._var_names: Dict[str, Variable] = {}
        #: Every constraint as a compiled row, in insertion order.
        self._rows: List[Row] = []
        self._objective: LinExpr = LinExpr()
        self._maximize = False
        self._aux_counter = itertools.count()
        #: The exported standard form; any change to the model drops it.
        self._form: Optional[StandardForm] = None

    # ------------------------------------------------------------------ #
    # variables
    # ------------------------------------------------------------------ #

    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = float("inf"),
        vartype: VarType = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a new decision variable.

        Variable names must be unique within the model; an empty name is
        replaced by an automatically generated one.
        """
        if not name:
            name = f"_v{next(self._aux_counter)}"
        if name in self._var_names:
            raise ModelError(f"duplicate variable name {name!r} in model {self.name!r}")
        if vartype is VarType.BINARY:
            lb = max(0.0, float(lb))
            ub = min(1.0, float(ub))
        var = Variable(name, len(self._variables), lb, ub, vartype, self._id)
        self._variables.append(var)
        self._var_names[name] = var
        self._form = None
        return var

    def add_continuous(
        self, name: str = "", lb: float = 0.0, ub: float = float("inf")
    ) -> Variable:
        """Add a continuous variable with the given bounds."""
        return self.add_var(name, lb, ub, VarType.CONTINUOUS)

    def add_binary(self, name: str = "") -> Variable:
        """Add a 0-1 variable."""
        return self.add_var(name, 0.0, 1.0, VarType.BINARY)

    def get_var(self, name: str) -> Variable:
        """Look up a variable by name."""
        try:
            return self._var_names[name]
        except KeyError as exc:
            raise ModelError(f"no variable named {name!r} in model {self.name!r}") from exc

    @property
    def variables(self) -> Sequence[Variable]:
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    # ------------------------------------------------------------------ #
    # constraints and objective
    # ------------------------------------------------------------------ #

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from a comparison expression.

        The constraint is lowered into a row at once: its terms in
        expression order, and the negated constant as right-hand side.
        """
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a Constraint (build one with <=, >= or ==)"
            )
        self._check_ownership(constraint.expr)
        if name:
            constraint = constraint.with_name(name)
        elif not constraint.name:
            constraint = constraint.with_name(f"c{len(self._rows)}")
        coeffs = constraint.expr.coeffs
        self._rows.append(
            (
                constraint.sense,
                tuple(var.index for var in coeffs),
                tuple(coeffs.values()),
                -constraint.expr.constant,
                constraint.name,
            )
        )
        self._form = None
        return constraint

    def add_linear_batch(self, batch: ConstraintBatch) -> int:
        """Ingest a whole :class:`ConstraintBatch` of compiled rows at once.

        This is the fast path used by the hot model builders: the rows are
        appended in their compiled form without ever materialising
        per-constraint dictionaries.  The rows are snapshotted, so the
        caller may keep filling (or re-use) the batch afterwards without
        affecting this model.  Returns the number of rows added.
        """
        if not isinstance(batch, ConstraintBatch):
            raise ModelError("add_linear_batch expects a ConstraintBatch")
        if len(batch) == 0:
            return 0
        num_vars = len(self._variables)
        rows = []
        for sense, cols, vals, rhs, name in batch.iter_rows():
            # min/max are C-level passes — much cheaper than a Python loop
            # over every coefficient on this declared fast path.
            if cols and (min(cols) < 0 or max(cols) >= num_vars):
                bad = min(cols) if min(cols) < 0 else max(cols)
                raise ModelError(
                    f"batch references column {bad} outside model "
                    f"{self.name!r} ({num_vars} variables)"
                )
            if not name:
                name = f"c{len(self._rows) + len(rows)}"
            rows.append((sense, tuple(cols), tuple(vals), rhs, name))
        self._rows.extend(rows)
        self._form = None
        return len(rows)

    @property
    def constraints(self) -> Sequence[Constraint]:
        """All constraints, materialised from the rows (for checking only)."""
        return tuple(rows_to_constraints(self._rows, self._variables))

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    def set_objective(self, objective: ExprLike, sense: str = "min") -> None:
        """Set the linear objective.

        ``sense`` is ``"min"`` or ``"max"``.
        """
        expr = LinExpr.from_value(objective)
        self._check_ownership(expr)
        if sense not in ("min", "max"):
            raise ModelError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self._objective = expr
        self._maximize = sense == "max"
        self._form = None

    @property
    def objective(self) -> LinExpr:
        # A copy: LinExpr supports in-place += / -=, and mutating the
        # model's internal objective would bypass the standard-form cache
        # drop that set_objective performs.
        return LinExpr(dict(self._objective.coeffs), self._objective.constant)

    def _check_ownership(self, expr: LinExpr) -> None:
        for var in expr.coeffs:
            if var._model_id != self._id:
                raise ModelError(
                    f"variable {var.name!r} belongs to a different model and "
                    f"cannot be used in model {self.name!r}"
                )

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def to_standard_form(self) -> StandardForm:
        """Export the model to the matrix form used by the solver.

        The form is assembled from the rows in one pass and cached until
        ``add_var``, ``add_constraint``, ``add_linear_batch`` or
        ``set_objective`` runs again.  Callers must treat the returned
        arrays as read-only — the solver copies before mutating.
        """
        if self._form is None:
            self._form = self._assemble_form()
        return self._form

    def _assemble_form(self) -> StandardForm:
        """Lower the rows into the ``<=`` and ``==`` families, in row order."""
        ub = _CooAccumulator()
        eq = _CooAccumulator()
        for sense, cols, vals, rhs, _ in self._rows:
            if sense is Sense.LE:
                ub.add_row(cols, vals, rhs)
            elif sense is Sense.GE:
                ub.add_row(cols, [-v for v in vals], -rhs)
            else:
                eq.add_row(cols, vals, rhs)
        n = len(self._variables)
        objective = np.zeros(n)
        for var, coeff in self._objective.coeffs.items():
            objective[var.index] = coeff
        return StandardForm(
            variables=list(self._variables),
            objective=objective,
            objective_constant=self._objective.constant,
            a_ub=ub.to_csr(n),
            b_ub=ub.rhs_array(),
            a_eq=eq.to_csr(n),
            b_eq=eq.rhs_array(),
            lower=np.array([var.lb for var in self._variables], dtype=float),
            upper=np.array([var.ub for var in self._variables], dtype=float),
            integrality=np.array(
                [1 if var.is_integer else 0 for var in self._variables], dtype=int
            ),
            maximize=self._maximize,
        )

    # ------------------------------------------------------------------ #
    # solving and checking
    # ------------------------------------------------------------------ #

    def solve(
        self,
        time_limit: float | None = None,
        mip_gap: float | None = None,
        warm_start: WarmStart | None = None,
        **options,
    ) -> Solution:
        """Solve the model with HiGHS.

        Parameters
        ----------
        time_limit:
            Wall-clock limit in seconds, or ``None`` for no limit.
        mip_gap:
            Relative optimality gap at which the solver may stop early.
        warm_start:
            Optional mapping of variables (or variable names) to suggested
            values that seeds the initial incumbent; unknown names are
            ignored, so a solution from a *related* model (the previous
            phase of the progressive flow) can be passed directly.
        options:
            ``node_limit`` and ``progressive``
            (:meth:`~repro.ilp.backends.highs.HighsBackend.solve`); any
            other keyword raises :class:`~repro.errors.SolverError`.
        """
        return HighsBackend().solve(
            self,
            time_limit=time_limit,
            mip_gap=mip_gap,
            warm_start=warm_start,
            **options,
        )

    def check_solution(
        self, solution: Solution, tolerance: float = DEFAULT_TOLERANCE
    ) -> List[Constraint]:
        """Return the constraints violated by a solution (empty when clean)."""
        if not solution.is_feasible:
            raise ModelError("cannot check an infeasible/errored solution")
        violated = []
        for constraint in self.constraints:
            if not constraint.is_satisfied(solution.values, tolerance):
                violated.append(constraint)
        return violated

    def statistics(self) -> Dict[str, int]:
        """Return simple model size statistics for reporting."""
        num_binary = sum(1 for v in self._variables if v.vartype is VarType.BINARY)
        num_integer = sum(1 for v in self._variables if v.vartype is VarType.INTEGER)
        return {
            "variables": len(self._variables),
            "binary_variables": num_binary,
            "integer_variables": num_integer,
            "continuous_variables": len(self._variables) - num_binary - num_integer,
            "constraints": len(self._rows),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.statistics()
        return (
            f"Model({self.name!r}, {stats['variables']} vars "
            f"[{stats['binary_variables']} bin, {stats['integer_variables']} int], "
            f"{stats['constraints']} constraints)"
        )


class _CooAccumulator:
    """COO triplet accumulator for one constraint family (<= or ==)."""

    __slots__ = ("data", "rows", "cols", "rhs")

    def __init__(self) -> None:
        self.data: List[float] = []
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.rhs: List[float] = []

    def add_row(self, cols: Sequence[int], vals: Sequence[float], rhs: float) -> None:
        row_index = len(self.rhs)
        self.rows.extend([row_index] * len(cols))
        self.cols.extend(cols)
        self.data.extend(vals)
        self.rhs.append(rhs)

    def to_csr(self, num_columns: int) -> sparse.csr_matrix:
        return sparse.csr_matrix(
            (self.data, (self.rows, self.cols)), shape=(len(self.rhs), num_columns)
        )

    def rhs_array(self) -> np.ndarray:
        return np.array(self.rhs, dtype=float)

