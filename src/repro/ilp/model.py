"""The MILP :class:`Model` container and its standard-form export.

A model owns a set of variables, a set of linear constraints and a linear
objective.  It can be exported to the standard matrix form

    minimise    c^T x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                lb <= x <= ub
                x_i integer for i in `integrality`

which is what the HiGHS solver (:mod:`repro.ilp.backends.highs`) consumes.

Two performance features back the progressive flow's fast path:

* constraints may be ingested in bulk from a pre-lowered
  :class:`~repro.ilp.compile.ConstraintBatch` (COO triplets) instead of one
  dict-backed :class:`Constraint` at a time, and
* ``to_standard_form()`` caches its result and — because the model API is
  append-only — patches new rows/columns onto the cached CSR matrices
  instead of re-lowering every constraint when the model grew between
  solves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from repro.errors import ModelError
from repro.ilp.backends.highs import HighsBackend
from repro.ilp.compile import ConstraintBatch
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
        #: Interleaved Constraint objects and snapshotted batch blocks
        #: (_CompiledRows), in insertion order (the model API is
        #: append-only).
        self._entries: List[Union[Constraint, "_CompiledRows"]] = []
        self._num_rows = 0
        self._objective: LinExpr = LinExpr()
        self._maximize = False
        self._aux_counter = itertools.count()
        # Materialised-constraint and standard-form caches (see the
        # respective accessors); both rely on the append-only guarantee.
        self._constraints_cache: Optional[List[Constraint]] = None
        self._form_cache: Optional[StandardForm] = None
        self._form_entries = 0
        self._form_vars = 0
        self._form_obj_token = -1
        self._obj_token = 0

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
        """Register a constraint built from a comparison expression."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a Constraint (build one with <=, >= or ==)"
            )
        self._check_ownership(constraint.expr)
        if name:
            constraint = constraint.with_name(name)
        elif not constraint.name:
            constraint = constraint.with_name(f"c{self._num_rows}")
        self._entries.append(constraint)
        self._num_rows += 1
        self._constraints_cache = None
        return constraint

    def add_linear_batch(self, batch: ConstraintBatch) -> int:
        """Ingest a whole :class:`ConstraintBatch` of compiled rows at once.

        This is the fast path used by the hot model builders: the rows are
        kept in their compiled COO form and lowered straight into the
        standard-form matrices without ever materialising per-constraint
        dictionaries.  The rows are snapshotted, so the caller may keep
        filling (or re-use) the batch afterwards without affecting this
        model.  Returns the number of rows added.
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
                name = f"c{self._num_rows + len(rows)}"
            rows.append((sense, tuple(cols), tuple(vals), rhs, name))
        compiled = _CompiledRows(tuple(rows))
        self._entries.append(compiled)
        self._num_rows += len(rows)
        self._constraints_cache = None
        return len(rows)

    @property
    def constraints(self) -> Sequence[Constraint]:
        """All constraints, materialising compiled batch rows on demand."""
        if self._constraints_cache is None:
            materialised: List[Constraint] = []
            for entry in self._entries:
                if isinstance(entry, _CompiledRows):
                    materialised.extend(entry.to_constraints(self._variables))
                else:
                    materialised.append(entry)
            self._constraints_cache = materialised
        return tuple(self._constraints_cache)

    @property
    def num_constraints(self) -> int:
        return self._num_rows

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
        self._obj_token += 1

    @property
    def objective(self) -> LinExpr:
        # A copy: LinExpr supports in-place += / -=, and mutating the
        # model's internal objective would bypass the standard-form cache
        # invalidation that set_objective performs.
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

        The compiled form is cached.  Because the model API is append-only
        (constraints and variables are never removed or edited in place), a
        model that grew since the last export only lowers its *new*
        constraints: fresh CSR rows are stacked under the cached matrices and
        the bound/integrality vectors are extended, instead of re-lowering
        the whole model.  Callers must treat the returned arrays as
        read-only — the solver copies before mutating.
        """
        n = len(self._variables)
        num_entries = len(self._entries)
        cache = self._form_cache
        if (
            cache is not None
            and self._form_entries == num_entries
            and self._form_vars == n
            and self._form_obj_token == self._obj_token
        ):
            return cache

        if cache is not None:
            form = self._extend_form(cache, n)
        else:
            form = self._assemble_form(self._entries, n)
        self._form_cache = form
        self._form_entries = num_entries
        self._form_vars = n
        self._form_obj_token = self._obj_token
        return form

    def _objective_vector(self, n: int) -> np.ndarray:
        objective = np.zeros(n)
        for var, coeff in self._objective.coeffs.items():
            objective[var.index] = coeff
        return objective

    def _lower_entries(self, entries: Sequence[Union[Constraint, "_CompiledRows"]]):
        """Lower entries to COO triplets, split into <= and == families."""
        ub = _CooAccumulator()
        eq = _CooAccumulator()
        for entry in entries:
            if isinstance(entry, _CompiledRows):
                for sense, cols, vals, rhs, _ in entry.iter_rows():
                    if sense is Sense.LE:
                        ub.add_row(cols, vals, rhs)
                    elif sense is Sense.GE:
                        ub.add_row(cols, [-v for v in vals], -rhs)
                    else:
                        eq.add_row(cols, vals, rhs)
            else:
                coeffs = entry.expr.coeffs
                cols = [var.index for var in coeffs]
                rhs = -entry.expr.constant
                if entry.sense is Sense.LE:
                    ub.add_row(cols, list(coeffs.values()), rhs)
                elif entry.sense is Sense.GE:
                    ub.add_row(cols, [-v for v in coeffs.values()], -rhs)
                else:
                    eq.add_row(cols, list(coeffs.values()), rhs)
        return ub, eq

    def _assemble_form(
        self, entries: Sequence[Union[Constraint, "_CompiledRows"]], n: int
    ) -> StandardForm:
        """Compile a standard form from scratch over the given entries."""
        ub, eq = self._lower_entries(entries)
        lower = np.array([var.lb for var in self._variables], dtype=float)
        upper = np.array([var.ub for var in self._variables], dtype=float)
        integrality = np.array(
            [1 if var.is_integer else 0 for var in self._variables], dtype=int
        )
        return StandardForm(
            variables=list(self._variables),
            objective=self._objective_vector(n),
            objective_constant=self._objective.constant,
            a_ub=ub.to_csr(n),
            b_ub=ub.rhs_array(),
            a_eq=eq.to_csr(n),
            b_eq=eq.rhs_array(),
            lower=lower,
            upper=upper,
            integrality=integrality,
            maximize=self._maximize,
        )

    def _extend_form(self, cache: StandardForm, n: int) -> StandardForm:
        """Patch a cached form with the rows/columns added since compilation.

        Row order is preserved: appended constraints land strictly after the
        cached ones within their (<= / ==) family, exactly as a full rebuild
        would order them.
        """
        new_entries = self._entries[self._form_entries :]
        ub, eq = self._lower_entries(new_entries)

        a_ub = _widen_csr(cache.a_ub, n)
        a_eq = _widen_csr(cache.a_eq, n)
        b_ub, b_eq = cache.b_ub, cache.b_eq
        if len(ub.rhs):
            a_ub = sparse.vstack([a_ub, ub.to_csr(n)], format="csr")
            b_ub = np.concatenate([b_ub, ub.rhs_array()])
        if len(eq.rhs):
            a_eq = sparse.vstack([a_eq, eq.to_csr(n)], format="csr")
            b_eq = np.concatenate([b_eq, eq.rhs_array()])

        if n > self._form_vars:
            added = self._variables[self._form_vars :]
            lower = np.concatenate(
                [cache.lower, np.array([v.lb for v in added], dtype=float)]
            )
            upper = np.concatenate(
                [cache.upper, np.array([v.ub for v in added], dtype=float)]
            )
            integrality = np.concatenate(
                [
                    cache.integrality,
                    np.array([1 if v.is_integer else 0 for v in added], dtype=int),
                ]
            )
        else:
            lower, upper, integrality = cache.lower, cache.upper, cache.integrality

        return StandardForm(
            variables=list(self._variables),
            objective=self._objective_vector(n),
            objective_constant=self._objective.constant,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            lower=lower,
            upper=upper,
            integrality=integrality,
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
            "constraints": self._num_rows,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.statistics()
        return (
            f"Model({self.name!r}, {stats['variables']} vars "
            f"[{stats['binary_variables']} bin, {stats['integer_variables']} int], "
            f"{stats['constraints']} constraints)"
        )


class _CompiledRows:
    """An immutable snapshot of batch rows owned by one model.

    Mirrors the read side of :class:`ConstraintBatch` (``__len__``,
    ``iter_rows``, ``to_constraints``) so the compile pipeline treats both
    uniformly, while guaranteeing the ingested rows can no longer change
    under the model's caches.
    """

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def iter_rows(self):
        return iter(self.rows)

    def to_constraints(self, variables: Sequence[Variable]) -> List[Constraint]:
        from repro.ilp.compile import rows_to_constraints

        return rows_to_constraints(self.rows, variables)


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


def _widen_csr(matrix: sparse.csr_matrix, num_columns: int) -> sparse.csr_matrix:
    """Reinterpret a CSR matrix with extra (empty) trailing columns.

    Shares the underlying data arrays — no copy is made.
    """
    if matrix.shape[1] == num_columns:
        return matrix
    return sparse.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr),
        shape=(matrix.shape[0], num_columns),
    )
