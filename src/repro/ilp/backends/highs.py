"""HiGHS MILP backend built on :func:`scipy.optimize.milp`.

This is the default backend.  SciPy ships the open-source HiGHS solver, which
plays the role that Gurobi played in the original paper: an exact
branch-and-cut MILP solver.  Cold solves go through ``scipy.optimize.milp``
exactly as before.

Two fast-path features additionally drive HiGHS through the *bundled* binding
(``scipy.optimize._highspy``), because SciPy's public ``milp`` wrapper cannot
express them:

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

When the bundled binding (or its callback interface) is unavailable the
backend silently degrades to the plain ``milp`` path; warm starts are then
ignored and progressive solves run to the gap or the time limit.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Tuple, Union

import numpy as np
from scipy import optimize, sparse

from repro.errors import SolverError
from repro.ilp.backends.base import SolverBackend
from repro.ilp.expr import Variable
from repro.ilp.solution import Solution, SolveStatus

#: An incumbent counts as progress of a progressive solve only once it
#: improves the objective by this relative amount.
MIN_IMPROVEMENT = 0.01

#: A progressive solve stops once this share of its time budget has passed
#: without progress.
STALL_WINDOW = 0.25


def _highspy_core():
    """Return SciPy's bundled HiGHS binding, or ``None`` if unavailable."""
    try:  # pragma: no cover - exercised indirectly
        import scipy.optimize._highspy._core as core

        # The private binding has changed names across SciPy releases; only
        # use it when everything the warm-start and progressive paths need
        # is present.
        required = ("HighsLp", "HighsOptions", "HighsSolution", "MatrixFormat", "cb")
        if not all(hasattr(core, name) for name in required):
            return None
        if not (hasattr(core, "_Highs") or hasattr(core, "Highs")):
            return None
        return core
    except Exception:  # pragma: no cover - defensive
        return None


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


class HighsBackend(SolverBackend):
    """Solve models with SciPy's HiGHS mixed-integer solver."""

    name = "highs"

    def solve(
        self,
        model,
        time_limit: float | None = None,
        mip_gap: float | None = None,
        warm_start: Mapping[Union[Variable, str], float] | None = None,
        **options,
    ) -> Solution:
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

        display = bool(options.pop("display", False))
        node_limit = options.pop("node_limit", None)
        presolve = options.pop("presolve", None)
        progressive = options.pop("progressive", None)
        if options:
            raise SolverError(
                f"unknown options for the HiGHS backend: {sorted(options)}"
            )

        warm_vector = None
        if warm_start is not None:
            warm_vector = self.warm_start_vector(form, warm_start)

        core = _highspy_core()
        is_mip = int(np.count_nonzero(form.integrality)) > 0
        use_direct = core is not None and is_mip and (
            warm_vector is not None or bool(progressive)
        )
        if use_direct:
            return self._solve_direct(
                core,
                form,
                start,
                time_limit=time_limit,
                mip_gap=mip_gap,
                warm_vector=warm_vector,
                display=display,
                presolve=presolve,
                node_limit=node_limit,
                progressive=bool(progressive),
            )
        return self._solve_scipy(
            form,
            start,
            time_limit=time_limit,
            mip_gap=mip_gap,
            display=display,
            node_limit=node_limit,
            presolve=presolve,
        )

    # ------------------------------------------------------------------ #
    # the classic scipy.optimize.milp path (cold solves)
    # ------------------------------------------------------------------ #

    def _solve_scipy(
        self,
        form,
        start: float,
        time_limit,
        mip_gap,
        display: bool,
        node_limit,
        presolve,
    ) -> Solution:
        objective = form.objective.copy()
        if form.maximize:
            objective = -objective

        constraints = []
        if form.a_ub.shape[0] > 0:
            constraints.append(
                optimize.LinearConstraint(
                    form.a_ub, -np.inf * np.ones(form.a_ub.shape[0]), form.b_ub
                )
            )
        if form.a_eq.shape[0] > 0:
            constraints.append(
                optimize.LinearConstraint(form.a_eq, form.b_eq, form.b_eq)
            )

        bounds = optimize.Bounds(form.lower, form.upper)

        milp_options = {"disp": display}
        if time_limit is not None:
            milp_options["time_limit"] = float(time_limit)
        if mip_gap is not None:
            milp_options["mip_rel_gap"] = float(mip_gap)
        if node_limit is not None:
            milp_options["node_limit"] = int(node_limit)
        if presolve is not None:
            milp_options["presolve"] = bool(presolve)

        try:
            result = optimize.milp(
                c=objective,
                constraints=constraints,
                integrality=form.integrality,
                bounds=bounds,
                options=milp_options,
            )
        except Exception as exc:  # pragma: no cover - defensive
            raise SolverError(f"HiGHS backend failed: {exc}") from exc

        elapsed = time.perf_counter() - start
        return self._interpret(form, result, elapsed)

    # ------------------------------------------------------------------ #
    # the direct (warm-started / progressive) path
    # ------------------------------------------------------------------ #

    def _build_lp(self, core, form):
        """Lower a StandardForm to a ``HighsLp`` (built once, reused)."""
        num_ub = form.a_ub.shape[0]
        num_eq = form.a_eq.shape[0]
        if num_ub and num_eq:
            a = sparse.vstack([form.a_ub, form.a_eq], format="csc")
        elif num_ub:
            a = form.a_ub.tocsc()
        else:
            a = form.a_eq.tocsc()
        row_lower = np.concatenate(
            [np.full(num_ub, -core.kHighsInf), form.b_eq]
        )
        row_upper = np.concatenate([form.b_ub, form.b_eq])

        objective = form.objective.copy()
        if form.maximize:
            objective = -objective

        lp = core.HighsLp()
        lp.num_col_ = form.num_variables
        lp.num_row_ = num_ub + num_eq
        lp.col_cost_ = objective
        lp.col_lower_ = form.lower
        lp.col_upper_ = form.upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = form.num_variables
        lp.a_matrix_.num_row_ = num_ub + num_eq
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.integrality_ = [
            core.HighsVarType.kInteger if flag else core.HighsVarType.kContinuous
            for flag in form.integrality
        ]
        return lp

    def _run_direct_once(
        self,
        core,
        lp,
        time_limit,
        mip_gap,
        warm_vector,
        display: bool,
        presolve,
        node_limit=None,
        monitor: Optional[_StallMonitor] = None,
    ) -> Tuple[object, Optional[np.ndarray], Optional[float], Optional[int]]:
        """One HiGHS run; returns ``(model_status, x, gap, nodes)``."""
        highs_cls = getattr(core, "_Highs", None) or getattr(core, "Highs")
        highs = highs_cls()
        opts = core.HighsOptions()
        opts.output_flag = display
        if time_limit is not None:
            opts.time_limit = float(time_limit)
        if mip_gap is not None:
            opts.mip_rel_gap = float(mip_gap)
        if presolve is not None:
            opts.presolve = "on" if presolve else "off"
        if node_limit is not None:
            opts.mip_max_nodes = int(node_limit)
        if highs.passOptions(opts) == core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the solver options")
        if highs.passModel(lp) == core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the model")
        if warm_vector is not None:
            sol = core.HighsSolution()
            sol.col_value = np.asarray(warm_vector, dtype=float)
            highs.setSolution(sol)
        if monitor is not None:
            highs.setCallback(monitor, None)
            for kind in monitor.kinds:
                highs.startCallback(kind)
        if highs.run() == core.HighsStatus.kError:
            return highs.getModelStatus(), None, None, None

        status = highs.getModelStatus()
        info = highs.getInfo()
        has_solution = np.isfinite(info.objective_function_value)
        x = None
        if has_solution:
            x = np.asarray(highs.getSolution().col_value, dtype=float)
            if x.size == 0 or not np.all(np.isfinite(x)):
                x = None
        gap = getattr(info, "mip_gap", None)
        gap = float(gap) if gap is not None and np.isfinite(gap) else None
        nodes = getattr(info, "mip_node_count", None)
        nodes = int(nodes) if nodes is not None and nodes >= 0 else None
        return status, x, gap, nodes

    def _solve_direct(
        self,
        core,
        form,
        start: float,
        time_limit,
        mip_gap,
        warm_vector,
        display: bool,
        presolve,
        node_limit,
        progressive: bool,
    ) -> Solution:
        monitor = None
        if progressive and time_limit is not None:
            monitor = _StallMonitor(core.cb, STALL_WINDOW * float(time_limit))
        status, x, gap, nodes = self._run_direct_once(
            core, self._build_lp(core, form), time_limit, mip_gap, warm_vector,
            display, presolve, node_limit, monitor,
        )
        return self._interpret_direct(
            core, form, status, x, gap, time.perf_counter() - start,
            iterations=nodes,
        )

    def _interpret_direct(
        self, core, form, status, x, gap, elapsed: float,
        iterations: Optional[int] = None,
    ) -> Solution:
        """Map a direct HiGHS run to a :class:`Solution`.

        Only the stall monitor interrupts a run, so ``kInterrupt`` means a
        progressive solve stalled; its incumbent is ``FEASIBLE``.
        """
        has_solution = x is not None
        hs = core.HighsModelStatus
        if status == hs.kOptimal and has_solution:
            our_status = SolveStatus.OPTIMAL
        elif status in (hs.kTimeLimit, hs.kIterationLimit) and has_solution:
            our_status = SolveStatus.FEASIBLE
        elif status in (hs.kTimeLimit, hs.kIterationLimit):
            our_status = SolveStatus.TIME_LIMIT
        elif status == hs.kInfeasible:
            our_status = SolveStatus.INFEASIBLE
        elif status in (hs.kUnbounded, hs.kUnboundedOrInfeasible):
            our_status = SolveStatus.UNBOUNDED
        elif has_solution:
            our_status = SolveStatus.FEASIBLE
        else:
            our_status = SolveStatus.ERROR

        message = f"HiGHS status: {status}" if status is not None else ""
        if status == hs.kInterrupt:
            message = (
                f"progressive solve stalled: no {MIN_IMPROVEMENT:.0%} improvement "
                f"in the last {STALL_WINDOW:.0%} of the budget; {message}"
            )
        if not has_solution:
            return Solution(
                status=our_status,
                solve_time=elapsed,
                backend=self.name,
                message=message,
                gap=gap,
                iterations=iterations,
            )
        values = self.assignment_from_vector(form, x)
        vector = np.array([values[var] for var in form.variables])
        objective = self.objective_value(form, vector)
        return Solution(
            status=our_status,
            objective=objective,
            values=values,
            solve_time=elapsed,
            backend=self.name,
            message=message,
            gap=gap,
            iterations=iterations,
        )

    # ------------------------------------------------------------------ #

    def _interpret(self, form, result, elapsed: float) -> Solution:
        """Map SciPy's ``OptimizeResult`` to a :class:`Solution`."""
        # scipy.optimize.milp status codes:
        #   0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded, 4 other
        status_code = int(getattr(result, "status", 4))
        x = getattr(result, "x", None)
        message = str(getattr(result, "message", ""))
        gap = getattr(result, "mip_gap", None)
        gap = float(gap) if gap is not None else None
        nodes = getattr(result, "mip_node_count", None)
        nodes = int(nodes) if nodes is not None and np.isfinite(nodes) else None

        has_solution = x is not None and np.all(np.isfinite(x))

        if status_code == 0 and has_solution:
            status = SolveStatus.OPTIMAL
        elif status_code == 1 and has_solution:
            status = SolveStatus.FEASIBLE
        elif status_code == 1:
            status = SolveStatus.TIME_LIMIT
        elif status_code == 2:
            status = SolveStatus.INFEASIBLE
        elif status_code == 3:
            status = SolveStatus.UNBOUNDED
        elif has_solution:
            status = SolveStatus.FEASIBLE
        else:
            status = SolveStatus.ERROR

        if not has_solution:
            return Solution(
                status=status,
                solve_time=elapsed,
                backend=self.name,
                message=message,
                gap=gap,
                iterations=nodes,
            )

        values = self.assignment_from_vector(form, np.asarray(x, dtype=float))
        vector = np.array([values[var] for var in form.variables])
        objective = self.objective_value(form, vector)
        return Solution(
            status=status,
            objective=objective,
            values=values,
            solve_time=elapsed,
            backend=self.name,
            message=message,
            gap=gap,
            iterations=nodes,
        )
