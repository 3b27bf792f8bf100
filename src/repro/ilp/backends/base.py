"""Common interface for MILP solver backends."""

from __future__ import annotations

import abc
import time
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.ilp.expr import Variable
from repro.ilp.solution import Solution, SolveStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.ilp.model import Model, StandardForm


class SolverBackend(abc.ABC):
    """Abstract base class for MILP backends.

    A backend consumes a :class:`~repro.ilp.model.Model`, solves it and
    returns a :class:`~repro.ilp.solution.Solution`.  Concrete backends are
    registered in :mod:`repro.ilp.backends` and selected by name.
    """

    #: Short name used to select the backend (e.g. ``"highs"``).
    name: str = "abstract"

    @abc.abstractmethod
    def solve(
        self,
        model: "Model",
        time_limit: float | None = None,
        mip_gap: float | None = None,
        warm_start: Mapping[Union[Variable, str], float] | None = None,
        **options,
    ) -> Solution:
        """Solve ``model`` and return a :class:`Solution`.

        ``warm_start`` maps variables (or variable names) to suggested
        values; backends that cannot exploit it must still accept and ignore
        it.
        """

    def repair(
        self,
        model: "Model",
        warm_start: Mapping[Union[Variable, str], float],
    ) -> Optional[Solution]:
        """Complete a warm start by LP instead of searching.

        Every integer column is pinned to the warm start's rounded value and
        the remaining LP is solved once; this is the repair HiGHS applies to
        an injected incumbent before its search starts.  The pins live on a
        copy of the standard form's bounds, never on the model.  Returns the
        repaired assignment as ``FEASIBLE``, or ``None`` when nothing in the
        warm start matched or the pinned LP has no optimum.
        """
        form = model.to_standard_form()
        start = time.perf_counter()
        vector = self.warm_start_vector(form, warm_start)
        if vector is None:
            return None
        pinned = pinned_bounds(form, vector)
        if pinned is None:
            return None
        from repro.ilp.backends.highs import solve_lp  # highs imports this module

        solved = solve_lp(form, *pinned)
        if solved is None:
            return None
        values = self.assignment_from_vector(form, solved[1])
        vector = np.array([values[var] for var in form.variables])
        return Solution(
            status=SolveStatus.FEASIBLE,
            objective=self.objective_value(form, vector),
            values=values,
            solve_time=time.perf_counter() - start,
            backend=self.name,
            message="warm start repaired by LP (integer columns pinned)",
            iterations=0,
            repaired=True,
        )

    # ------------------------------------------------------------------ #
    # shared utilities
    # ------------------------------------------------------------------ #

    @staticmethod
    def assignment_from_vector(
        form: "StandardForm", x: np.ndarray
    ) -> Dict[Variable, float]:
        """Convert a raw solution vector to a variable->value mapping.

        Integer variables are rounded to the nearest integer and clipped to
        their bounds to remove solver round-off.
        """
        values: Dict[Variable, float] = {}
        for var, raw in zip(form.variables, x):
            value = float(raw)
            if var.is_integer:
                value = float(round(value))
            value = min(max(value, var.lb), var.ub)
            values[var] = value
        return values

    @staticmethod
    def objective_value(form: "StandardForm", x: np.ndarray) -> float:
        """Evaluate the (sign-corrected) objective for a raw vector."""
        value = float(form.objective @ x) + form.objective_constant
        return value

    @staticmethod
    def warm_start_vector(
        form: "StandardForm",
        warm_start: Mapping[Union[Variable, str], float],
    ) -> Optional[np.ndarray]:
        """Build a full solution vector from a (possibly partial) warm start.

        Keys may be :class:`Variable` objects of this model or plain variable
        names; names that do not exist in the model are silently skipped so a
        previous phase's solution can be replayed onto a related model.
        Missing variables default to the bound-clamped zero, every provided
        value is clamped into its variable's bounds, and integer variables
        are rounded.  Returns ``None`` when nothing matched.
        """
        import collections.abc

        from repro.errors import SolverError

        if not isinstance(warm_start, collections.abc.Mapping):
            raise SolverError(
                "warm_start must map variables (or variable names) to values, "
                f"got {type(warm_start).__name__}"
            )
        by_name = {var.name: index for index, var in enumerate(form.variables)}
        x = np.clip(np.zeros(len(form.variables)), form.lower, form.upper)
        matched = 0
        for key, value in warm_start.items():
            if isinstance(key, Variable):
                index = by_name.get(key.name)
            else:
                index = by_name.get(str(key))
            if index is None:
                continue
            x[index] = float(value)
            matched += 1
        if matched == 0:
            return None
        x = np.clip(x, form.lower, form.upper)
        integer_mask = form.integrality != 0
        x[integer_mask] = np.round(x[integer_mask])
        return x


def pinned_bounds(
    form: "StandardForm", x: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Copies of ``form``'s bounds with every integer column fixed to ``x``.

    ``x`` is rounded on the integer columns; returns ``None`` when a rounded
    value falls outside its variable's bounds.
    """
    integer_indices = np.flatnonzero(form.integrality)
    lower = form.lower.copy()
    upper = form.upper.copy()
    rounded = np.round(x[integer_indices])
    lower[integer_indices] = np.maximum(rounded, form.lower[integer_indices])
    upper[integer_indices] = np.minimum(rounded, form.upper[integer_indices])
    if np.any(lower > upper):
        return None
    return lower, upper

