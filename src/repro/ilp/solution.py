"""Solution objects returned by the MILP solver."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ModelError
from repro.ilp.expr import ExprLike, LinExpr, Variable


class SolveStatus(enum.Enum):
    """Outcome of a solve call.

    ``OPTIMAL``
        The backend proved optimality of the returned assignment.
    ``FEASIBLE``
        A feasible assignment was found but optimality was not proven
        (typically because a time or node limit was hit).
    ``INFEASIBLE``
        The model has no feasible assignment.
    ``UNBOUNDED``
        The objective can be improved without bound.
    ``TIME_LIMIT``
        A time or node limit was reached before any feasible assignment was
        found.
    ``ERROR``
        The backend failed for an unexpected reason.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


#: Statuses for which :attr:`Solution.values` carries a usable assignment.
_STATUSES_WITH_VALUES = (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class Solution:
    """Result of solving a :class:`repro.ilp.model.Model`.

    Attributes
    ----------
    status:
        Outcome of the solve.
    objective:
        Objective value of the returned assignment (``nan`` if none).
    values:
        Mapping from :class:`Variable` to its solved value.  Integer and
        binary variables are rounded to the nearest integer by the solver.
    solve_time:
        Wall-clock seconds spent inside the backend.
    backend:
        Name of the backend that produced this solution.
    gap:
        Relative MIP gap if the backend reports one, ``None`` otherwise.
    message:
        Free-form diagnostic text from the backend.
    iterations:
        Solver effort count when the solver reports one — the
        search-tree nodes HiGHS explored, ``None`` when there is no such
        counter (a pure LP).
    repaired:
        True when the assignment is a warm start completed by LP
        (:meth:`~repro.ilp.backends.highs.HighsBackend.repair`) rather than
        the outcome of a search.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Dict[Variable, float] = field(default_factory=dict)
    solve_time: float = 0.0
    backend: str = ""
    gap: float | None = None
    message: str = ""
    iterations: int | None = None
    repaired: bool = False

    @property
    def is_feasible(self) -> bool:
        """True when the solution carries a usable variable assignment."""
        return self.status in _STATUSES_WITH_VALUES and bool(self.values)

    @property
    def is_optimal(self) -> bool:
        """True when the backend proved optimality."""
        return self.status is SolveStatus.OPTIMAL

    def value(self, item: ExprLike) -> float:
        """Return the solved value of a variable or linear expression."""
        if not self.is_feasible:
            raise ModelError(
                f"no variable assignment available (status={self.status.value})"
            )
        if isinstance(item, Variable):
            try:
                return self.values[item]
            except KeyError as exc:
                raise ModelError(
                    f"variable {item.name!r} is not part of this solution"
                ) from exc
        expr = LinExpr.from_value(item)
        return expr.value(self.values)

    def summary(self) -> str:
        """One-line human readable description of the solve outcome."""
        parts = [f"status={self.status.value}"]
        if self.is_feasible:
            parts.append(f"objective={self.objective:.6g}")
        if self.gap is not None:
            parts.append(f"gap={self.gap:.3%}")
        parts.append(f"time={self.solve_time:.2f}s")
        if self.backend:
            parts.append(f"backend={self.backend}")
        return ", ".join(parts)
