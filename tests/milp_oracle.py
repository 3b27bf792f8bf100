"""An exhaustive MILP oracle for small models that never calls HiGHS.

The tests check HiGHS against it.  :func:`oracle_solve` reads a model's
standard form and

* enumerates every integer point within the integer columns' bounds, and
* for each one, optimises the continuous columns (at most two) by vertex
  enumeration: every choice of as many active rows or bounds as there are
  continuous columns is solved as a square linear system with numpy, and the
  solution is kept when it satisfies every row and bound.

Every continuous column needs finite bounds, so the continuous part of each
integer point is a polytope whose optimum, if any, lies on a vertex.  Models
the oracle cannot enumerate raise ``ValueError`` instead of being guessed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.ilp.solution import Solution, SolveStatus

#: The most integer points the oracle enumerates.
MAX_INTEGER_POINTS = 100_000
#: The most continuous columns the oracle vertex-enumerates.
MAX_CONTINUOUS = 2
#: Absolute feasibility tolerance on rows and bounds.
FEASIBILITY_TOL = 1.0e-7


def oracle_solve(model) -> Solution:
    """Solve ``model`` exhaustively; ``OPTIMAL`` or ``INFEASIBLE``."""
    form = model.to_standard_form()
    integer = np.flatnonzero(form.integrality)
    continuous = np.flatnonzero(form.integrality == 0)
    if len(continuous) > MAX_CONTINUOUS:
        raise ValueError(f"{len(continuous)} continuous columns; at most {MAX_CONTINUOUS}")
    bounds = np.concatenate([form.lower, form.upper])
    if not np.all(np.isfinite(bounds)):
        raise ValueError("every column needs finite bounds")
    ranges = [
        range(math.ceil(form.lower[j]), math.floor(form.upper[j]) + 1) for j in integer
    ]
    if math.prod(len(values) for values in ranges) > MAX_INTEGER_POINTS:
        raise ValueError("too many integer points to enumerate")

    a_ub, a_eq = form.a_ub.toarray(), form.a_eq.toarray()
    sign = -1.0 if form.maximize else 1.0  # minimise sign * objective
    best = None
    for point in itertools.product(*ranges):
        x = np.zeros(form.num_variables)
        x[integer] = point
        for y in _vertices(form, a_ub, a_eq, continuous, x):
            x[continuous] = y
            value = sign * float(form.objective @ x)
            if best is None or value < best[0] - FEASIBILITY_TOL:
                best = (value, x.copy())
    if best is None:
        return Solution(status=SolveStatus.INFEASIBLE, backend="oracle")
    x = best[1]
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=float(form.objective @ x) + form.objective_constant,
        values={var: float(value) for var, value in zip(form.variables, x)},
        backend="oracle",
    )


def _vertices(form, a_ub, a_eq, continuous, x):
    """Feasible vertices of the continuous columns with the rest fixed by ``x``.

    Rows are ``G y <= h`` (the inequality rows, then each column's lower and
    upper bound) and ``E y == f``; a vertex solves ``k`` of them with equality
    (``k`` continuous columns).  Yields each feasible vertex.
    """
    k = len(continuous)
    fixed = x.copy()
    fixed[continuous] = 0.0
    eye = np.eye(k)
    g = np.vstack([a_ub[:, continuous], -eye, eye])
    h = np.concatenate(
        [form.b_ub - a_ub @ fixed, -form.lower[continuous], form.upper[continuous]]
    )
    e = a_eq[:, continuous]
    f = form.b_eq - a_eq @ fixed
    rows = np.vstack([g, e])
    rhs = np.concatenate([h, f])
    for active in itertools.combinations(range(len(rows)), k):
        if k:
            matrix = rows[list(active)]
            if np.linalg.matrix_rank(matrix) < k:
                continue
            y = np.linalg.solve(matrix, rhs[list(active)])
        else:
            y = np.zeros(0)
        if np.all(g @ y <= h + FEASIBILITY_TOL) and np.all(np.abs(e @ y - f) <= FEASIBILITY_TOL):
            yield y
