"""Mixed integer linear programming modelling layer.

This subpackage is the solver substrate that replaces Gurobi in the paper's
flow.  It provides a small modelling language (:class:`Model`,
:class:`Variable`, :class:`LinExpr`, :class:`Constraint`), the linearisation
tricks the model builder uses (:mod:`repro.ilp.linearize`) and one exact MILP
solver, HiGHS on SciPy's bundled binding (:mod:`repro.ilp.backends.highs`).

Quick example
-------------
>>> from repro.ilp import Model
>>> m = Model()
>>> x = m.add_continuous("x", lb=0, ub=4)
>>> y = m.add_binary("y")
>>> _ = m.add_constraint(x + 3 * y <= 5)
>>> m.set_objective(2 * x + y, sense="max")
>>> sol = m.solve()
>>> sol.status.value
'optimal'
"""

from repro.ilp.compile import ColumnExpr, ConstraintBatch
from repro.ilp.expr import Constraint, LinExpr, Sense, Variable, VarType, lin_sum
from repro.ilp.linearize import equal_if, exactly_one
from repro.ilp.model import Model, StandardForm
from repro.ilp.solution import Solution, SolveStatus

__all__ = [
    "Model",
    "StandardForm",
    "Variable",
    "VarType",
    "LinExpr",
    "Constraint",
    "Sense",
    "lin_sum",
    "ColumnExpr",
    "ConstraintBatch",
    "Solution",
    "SolveStatus",
    "equal_if",
    "exactly_one",
]
