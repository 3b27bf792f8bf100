"""The MILP solver: HiGHS on SciPy's bundled binding.

SciPy ships the open-source HiGHS solver, which plays the role that Gurobi
played in the original paper: an exact branch-and-cut MILP solver.  It is
the only solver of :mod:`repro.ilp`.

Every HiGHS call takes one path through the bundled binding
``scipy.optimize._highspy._core``: :func:`lower` turns a
:class:`~repro.ilp.model.StandardForm` into a ``HighsLp`` and :func:`run`
solves it with a set of options, an optional warm vector and an optional
callback.  :meth:`HighsBackend.solve` uses the pair for cold, warm-started
and progressive MIPs and for pure LPs; :meth:`HighsBackend.repair` uses it
for the LP that completes a warm start.  The binding is required: without it
a solve raises :class:`~repro.errors.SolverError`, and there is no fallback.

Two features rely on the binding's full surface:

* **warm starts** — a (possibly partial) incumbent from a previous, related
  solve is injected with ``Highs.setSolution`` so the MIP search starts from
  a good primal bound instead of hunting for a first feasible point, and
* **progressive solves** — one HiGHS run that stops itself once the
  incumbent stalls.  A callback notes HiGHS's running time whenever the
  incumbent has improved the objective by at least :data:`MIN_IMPROVEMENT`
  (1%) since the last such note.  Once an incumbent exists and a quarter of
  the time budget (:data:`STALL_WINDOW`) has passed without one, the
  interrupt callback stops the run and its incumbent is returned as
  ``FEASIBLE``.  The soft phase models of the progressive flow have a
  structurally weak LP bound (their big-M relaxation bounds the objective by
  zero), so the MIP gap criterion never fires and the stall criterion is what
  actually ends the solve.
"""

from __future__ import annotations

import collections.abc
import time
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.errors import SolverError
from repro.ilp.expr import Variable
from repro.ilp.solution import Solution, SolveStatus

#: An incumbent counts as progress of a progressive solve only once it
#: improves the objective by this relative amount.
MIN_IMPROVEMENT = 0.01

#: A progressive solve stops once this share of its time budget has passed
#: without progress.
STALL_WINDOW = 0.25

#: The bundled binding every solve runs on.
BINDING = "scipy.optimize._highspy._core"

# Imported with this module, not at the first solve: the service forks a
# worker per job, and the import (all of scipy.optimize) would otherwise be
# paid again in every worker.
try:
    from scipy.optimize._highspy import _core
except ImportError:  # reported by _highspy_core() when a solve needs it
    _core = None


def _highspy_core():
    """Return SciPy's bundled HiGHS binding; raise if it is unusable."""
    if _core is None:
        raise SolverError(f"the HiGHS backend needs {BINDING}, which SciPy lacks")
    # The private binding has changed names across SciPy releases; name what
    # this release lacks instead of failing somewhere inside a solve.
    required = ("HighsLp", "HighsOptions", "HighsSolution", "MatrixFormat", "_Highs", "cb")
    missing = [name for name in required if not hasattr(_core, name)]
    if missing:
        raise SolverError(f"the HiGHS backend needs {BINDING}, which lacks {missing}")
    return _core


def lower(core, form, relax: bool = False):
    """Lower a StandardForm to a minimising ``HighsLp``.

    With ``relax`` the integrality of every column is dropped (an LP
    relaxation).
    """
    num_ub = form.a_ub.shape[0]
    num_eq = form.a_eq.shape[0]
    if num_ub and num_eq:
        a = sparse.vstack([form.a_ub, form.a_eq], format="csc")
    elif num_ub:
        a = form.a_ub.tocsc()
    else:
        a = form.a_eq.tocsc()
    objective = -form.objective if form.maximize else form.objective

    lp = core.HighsLp()
    lp.num_col_ = form.num_variables
    lp.num_row_ = num_ub + num_eq
    lp.col_cost_ = objective
    lp.col_lower_ = form.lower
    lp.col_upper_ = form.upper
    lp.row_lower_ = np.concatenate([np.full(num_ub, -core.kHighsInf), form.b_eq])
    lp.row_upper_ = np.concatenate([form.b_ub, form.b_eq])
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = form.num_variables
    lp.a_matrix_.num_row_ = num_ub + num_eq
    lp.a_matrix_.start_ = a.indptr
    lp.a_matrix_.index_ = a.indices
    lp.a_matrix_.value_ = a.data
    if not relax and np.any(form.integrality):
        lp.integrality_ = [
            core.HighsVarType.kInteger if flag else core.HighsVarType.kContinuous
            for flag in form.integrality
        ]
    return lp


def run(core, lp, options: Mapping[str, object], warm_vector=None, callback=None):
    """Run HiGHS once on ``lp``; return ``(model_status, info, x)``.

    ``options`` maps ``HighsOptions`` attribute names to values.
    ``warm_vector`` is injected as the starting incumbent.  ``callback`` is
    called for each HiGHS callback type in its ``kinds``.  ``x`` is the
    column vector whenever HiGHS reports a finite objective, else ``None``.
    """
    highs = core._Highs()
    opts = core.HighsOptions()
    opts.output_flag = False
    for name, value in options.items():
        setattr(opts, name, value)
    if highs.passOptions(opts) == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the solver options")
    if highs.passModel(lp) == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    if warm_vector is not None:
        sol = core.HighsSolution()
        sol.col_value = np.asarray(warm_vector, dtype=float)
        highs.setSolution(sol)
    if callback is not None:
        highs.setCallback(callback, None)
        for kind in callback.kinds:
            highs.startCallback(kind)
    if highs.run() == core.HighsStatus.kError:
        return highs.getModelStatus(), None, None

    info = highs.getInfo()
    x = None
    if np.isfinite(info.objective_function_value):
        x = np.asarray(highs.getSolution().col_value, dtype=float)
        if x.size == 0 or not np.all(np.isfinite(x)):
            x = None
    return highs.getModelStatus(), info, x


def pinned_bounds(form, x: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
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


class _StallMonitor:
    """HiGHS callback that interrupts a run once its incumbent stalls.

    Both callbacks read HiGHS's own ``running_time``.  No stall is declared
    before the first incumbent, so a run that has none keeps searching until
    its time limit.
    """

    def __init__(self, cb, window: float) -> None:
        types = cb.HighsCallbackType
        self.kinds = (types.kCallbackMipImprovingSolution, types.kCallbackMipInterrupt)
        self._improving, self._interrupt = (int(kind) for kind in self.kinds)
        self._window = window
        self._reference: Optional[float] = None  # objective at the last progress
        self._progress_at: Optional[float] = None

    def __call__(self, kind, message, data_out, data_in, user_data) -> None:
        kind = int(kind)
        if kind == self._improving:
            objective = data_out.objective_function_value
            reference = self._reference
            if reference is None or (
                reference - objective >= MIN_IMPROVEMENT * max(1.0, abs(reference))
            ):
                self._reference = objective
                self._progress_at = data_out.running_time
        elif kind == self._interrupt and self._progress_at is not None:
            if data_out.running_time - self._progress_at > self._window:
                data_in.user_interrupt = True


class HighsBackend:
    """Solve models with the HiGHS mixed-integer solver."""

    #: Recorded as ``Solution.backend`` (``solver_backend`` in summaries).
    name = "highs"

    def solve(
        self,
        model,
        time_limit: float | None = None,
        mip_gap: float | None = None,
        warm_start: Mapping[Union[Variable, str], float] | None = None,
        **options,
    ) -> Solution:
        """Solve ``model`` and return a :class:`Solution`.

        ``warm_start`` maps variables (or variable names) to suggested
        values and seeds a MIP's incumbent.  ``options`` takes
        ``node_limit`` (HiGHS's ``mip_max_nodes``) and ``progressive`` (stop
        once the incumbent stalls); anything else raises
        :class:`~repro.errors.SolverError`.
        """
        form = model.to_standard_form()
        start = time.perf_counter()

        if form.num_variables == 0:
            # An empty model is trivially optimal with objective == constant.
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=form.objective_constant,
                values={},
                solve_time=0.0,
                backend=self.name,
            )

        highs_options = {}
        node_limit = options.pop("node_limit", None)
        progressive = options.pop("progressive", None)
        if options:
            raise SolverError(
                f"unknown options for the HiGHS backend: {sorted(options)}"
            )
        if time_limit is not None:
            highs_options["time_limit"] = float(time_limit)
        if mip_gap is not None:
            highs_options["mip_rel_gap"] = float(mip_gap)
        if node_limit is not None:
            highs_options["mip_max_nodes"] = int(node_limit)

        warm_vector = monitor = None
        if warm_start is not None:
            warm_vector = self.warm_start_vector(form, warm_start)
        core = _highspy_core()
        is_mip = bool(np.any(form.integrality))
        if not is_mip:
            warm_vector = None  # an LP has no incumbent to seed
        elif progressive and time_limit is not None:
            monitor = _StallMonitor(core.cb, STALL_WINDOW * float(time_limit))
        status, info, x = run(core, lower(core, form), highs_options, warm_vector, monitor)
        if not is_mip and status != core.HighsModelStatus.kOptimal:
            x = None  # a non-optimal LP iterate need not be feasible
        return self._solution(core, form, status, info, x, time.perf_counter() - start)

    def repair(
        self,
        model,
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
        core = _highspy_core()
        lp = lower(core, form, relax=True)
        lp.col_lower_, lp.col_upper_ = pinned
        status, _, x = run(core, lp, {})
        if status != core.HighsModelStatus.kOptimal or x is None:
            return None
        values = self.assignment_from_vector(form, x)
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

    @staticmethod
    def assignment_from_vector(form, x: np.ndarray) -> Dict[Variable, float]:
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
    def objective_value(form, x: np.ndarray) -> float:
        """Evaluate the (sign-corrected) objective for a raw vector."""
        return float(form.objective @ x) + form.objective_constant

    @staticmethod
    def warm_start_vector(
        form, warm_start: Mapping[Union[Variable, str], float]
    ) -> Optional[np.ndarray]:
        """Build a full solution vector from a (possibly partial) warm start.

        Keys may be :class:`Variable` objects of this model or plain variable
        names; names that do not exist in the model are silently skipped so a
        previous phase's solution can be replayed onto a related model.
        Missing variables default to the bound-clamped zero, every provided
        value is clamped into its variable's bounds, and integer variables
        are rounded.  Returns ``None`` when nothing matched.
        """
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

    def _solution(self, core, form, status, info, x, elapsed: float) -> Solution:
        """Map a HiGHS run to a :class:`Solution`.

        A time, iteration or node limit (``kSolutionLimit``) gives
        ``FEASIBLE`` with an incumbent and ``TIME_LIMIT`` without one.  Only
        the stall monitor interrupts a run, so ``kInterrupt`` means a
        progressive solve stalled; its incumbent is ``FEASIBLE``.
        """
        has_solution = x is not None
        hs = core.HighsModelStatus
        if status == hs.kOptimal and has_solution:
            our_status = SolveStatus.OPTIMAL
        elif status in (hs.kTimeLimit, hs.kIterationLimit, hs.kSolutionLimit):
            our_status = SolveStatus.FEASIBLE if has_solution else SolveStatus.TIME_LIMIT
        elif status == hs.kInfeasible:
            our_status = SolveStatus.INFEASIBLE
        elif status in (hs.kUnbounded, hs.kUnboundedOrInfeasible):
            our_status = SolveStatus.UNBOUNDED
        elif has_solution:
            our_status = SolveStatus.FEASIBLE
        else:
            our_status = SolveStatus.ERROR

        message = f"HiGHS status: {status}"
        if status == hs.kInterrupt:
            message = (
                f"progressive solve stalled: no {MIN_IMPROVEMENT:.0%} improvement "
                f"in the last {STALL_WINDOW:.0%} of the budget; {message}"
            )
        gap = nodes = None
        if info is not None:
            gap = float(info.mip_gap) if np.isfinite(info.mip_gap) else None
            nodes = int(info.mip_node_count) if info.mip_node_count >= 0 else None
        solution = Solution(
            status=our_status,
            solve_time=elapsed,
            backend=self.name,
            message=message,
            gap=gap,
            iterations=nodes,
        )
        if has_solution:
            solution.values = self.assignment_from_vector(form, x)
            vector = np.array([solution.values[var] for var in form.variables])
            solution.objective = self.objective_value(form, vector)
        return solution
