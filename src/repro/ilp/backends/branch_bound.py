"""Pure-Python branch-and-bound MILP backend.

This backend exists for two reasons:

1. It demonstrates that the paper's formulation can be solved without any
   external MILP engine: LP relaxations are solved by HiGHS's LP code
   (:func:`~repro.ilp.backends.highs.solve_lp`, on SciPy's bundled
   binding), and integrality is enforced by branching.
2. It provides an independent cross-check of the HiGHS MILP backend in the
   test-suite: both backends must agree on optimal objective values for small
   models.

The implementation is a classic best-first branch-and-bound with
most-fractional branching, bound-based pruning, optional time limits and a
simple rounding heuristic to obtain early incumbents.  Performance details
worth knowing:

* every node's LP relaxation is solved exactly once — when the node is
  created — and the solution is carried on the node, so popping a node never
  re-solves its LP;
* a caller-provided warm start is rounded and repaired into an initial
  incumbent before the search begins, which both prunes the tree and
  guarantees the progressive flow a feasible fallback;
* the node ordering is fully deterministic: ties in the LP bound are broken
  by node creation sequence, so identical models explore identical trees.

It is not meant to be competitive with HiGHS on the large Phase-1 models —
the progressive flow uses the HiGHS backend by default — but it solves the
unit-test sized models in milliseconds and medium models in seconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.ilp.backends.base import SolverBackend, pinned_bounds
from repro.ilp.backends.highs import solve_lp
from repro.ilp.expr import Variable
from repro.ilp.solution import Solution, SolveStatus

#: Integrality tolerance: an LP value within this distance of an integer is
#: treated as integral.
_INT_TOL = 1.0e-6

#: Optimality tolerance when comparing node bounds against the incumbent.
_BOUND_TOL = 1.0e-9


@dataclass(order=True)
class _Node:
    """A subproblem in the branch-and-bound tree.

    Ordering is ``(bound, sequence)``: best-first on the LP bound with the
    creation sequence as a deterministic tie-break, so runs are reproducible
    node-for-node.
    """

    bound: float
    sequence: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    x: np.ndarray = field(compare=False)
    depth: int = field(compare=False, default=0)


class BranchAndBoundBackend(SolverBackend):
    """Best-first branch-and-bound over HiGHS LP relaxations."""

    name = "branch-and-bound"

    def __init__(
        self,
        max_nodes: int = 200_000,
        rounding_heuristic: bool = True,
    ) -> None:
        self.max_nodes = max_nodes
        self.rounding_heuristic = rounding_heuristic

    # ------------------------------------------------------------------ #

    def solve(
        self,
        model,
        time_limit: float | None = None,
        mip_gap: float | None = None,
        warm_start: Mapping[Union[Variable, str], float] | None = None,
        **options,
    ) -> Solution:
        max_nodes = int(options.pop("max_nodes", self.max_nodes))
        if options:
            from repro.errors import SolverError

            raise SolverError(
                f"unknown options for the branch-and-bound backend: {sorted(options)}"
            )

        form = model.to_standard_form()
        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else None

        if form.num_variables == 0:
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective=form.objective_constant,
                values={},
                backend=self.name,
                iterations=0,
            )

        objective = form.objective.copy()
        if form.maximize:
            objective = -objective

        integer_indices = np.flatnonzero(form.integrality)

        root_lower = form.lower.copy()
        root_upper = form.upper.copy()

        incumbent_x: Optional[np.ndarray] = None
        incumbent_value = math.inf
        best_bound = -math.inf
        proven_infeasible = False

        # Seed the incumbent from a caller-provided warm start: round its
        # integer components, fix them, and let the LP repair the rest.
        if warm_start is not None:
            vector = self.warm_start_vector(form, warm_start)
            if vector is not None:
                seeded = self._round_and_check(
                    form, objective, vector, integer_indices, deadline
                )
                if seeded is not None:
                    incumbent_value, incumbent_x = seeded

        counter = itertools.count()
        heap: List[_Node] = []

        def deadline_expired() -> bool:
            # A failed LP right at the budget boundary is a timeout, not a
            # proof of infeasibility (HiGHS may stop on its own
            # time_limit slightly before our clock does).
            return deadline is not None and time.perf_counter() > deadline - 0.1

        nodes_explored = 0
        hit_limit = False

        root_result = solve_lp(form, root_lower, root_upper, deadline)
        if root_result is None:
            if deadline_expired():
                hit_limit = True
            else:
                proven_infeasible = True
        else:
            root_bound, root_x = root_result
            best_bound = root_bound
            heapq.heappush(
                heap,
                _Node(root_bound, next(counter), root_lower, root_upper, root_x, 0),
            )
            if self.rounding_heuristic:
                rounded = self._round_and_check(
                    form, objective, root_x, integer_indices, deadline
                )
                if rounded is not None and rounded[0] < incumbent_value:
                    incumbent_value, incumbent_x = rounded

        while heap:
            if deadline is not None and time.perf_counter() > deadline:
                hit_limit = True
                break
            if nodes_explored >= max_nodes:
                hit_limit = True
                break

            node = heapq.heappop(heap)
            best_bound = node.bound
            if node.bound >= incumbent_value - _BOUND_TOL:
                # Everything remaining is at least as bad as the incumbent.
                best_bound = incumbent_value
                break
            if mip_gap is not None and incumbent_x is not None:
                gap = _relative_gap(incumbent_value, node.bound)
                if gap <= mip_gap:
                    break

            # The node's LP was solved when it was created; reuse it.
            nodes_explored += 1
            x = node.x

            branch_index = self._most_fractional(x, integer_indices)
            if branch_index is None:
                # Integral solution: new incumbent.
                if node.bound < incumbent_value:
                    incumbent_value = node.bound
                    incumbent_x = x
                continue

            if self.rounding_heuristic and node.depth % 4 == 0:
                rounded = self._round_and_check(
                    form, objective, x, integer_indices, deadline
                )
                if rounded is not None and rounded[0] < incumbent_value:
                    incumbent_value, incumbent_x = rounded

            value = x[branch_index]
            floor_value = math.floor(value)

            down_lower = node.lower.copy()
            down_upper = node.upper.copy()
            down_upper[branch_index] = floor_value

            up_lower = node.lower.copy()
            up_upper = node.upper.copy()
            up_lower[branch_index] = floor_value + 1

            for child_lower, child_upper in ((down_lower, down_upper), (up_lower, up_upper)):
                if child_lower[branch_index] > child_upper[branch_index]:
                    continue
                child_result = solve_lp(form, child_lower, child_upper, deadline)
                if child_result is None:
                    if deadline_expired():
                        # Don't treat a timed-out child LP as pruned: its
                        # subtree was never bounded, so optimality can no
                        # longer be claimed.
                        hit_limit = True
                        break
                    continue
                child_bound, child_x = child_result
                if child_bound >= incumbent_value - _BOUND_TOL:
                    continue
                if self._most_fractional(child_x, integer_indices) is None:
                    if child_bound < incumbent_value:
                        incumbent_value = child_bound
                        incumbent_x = child_x
                    continue
                heapq.heappush(
                    heap,
                    _Node(
                        child_bound,
                        next(counter),
                        child_lower,
                        child_upper,
                        child_x,
                        node.depth + 1,
                    ),
                )
            if hit_limit:
                break

        elapsed = time.perf_counter() - start

        if incumbent_x is None:
            if proven_infeasible or not hit_limit:
                return Solution(
                    status=SolveStatus.INFEASIBLE,
                    solve_time=elapsed,
                    backend=self.name,
                    message=f"explored {nodes_explored} nodes",
                    iterations=nodes_explored,
                )
            return Solution(
                status=SolveStatus.TIME_LIMIT,
                solve_time=elapsed,
                backend=self.name,
                message=f"no incumbent after {nodes_explored} nodes",
                iterations=nodes_explored,
            )

        values = self.assignment_from_vector(form, incumbent_x)
        vector = np.array([values[var] for var in form.variables])
        signed_objective = float(objective @ vector)
        gap = _relative_gap(incumbent_value, min(best_bound, incumbent_value))
        if form.maximize:
            true_objective = -signed_objective + form.objective_constant
        else:
            true_objective = signed_objective + form.objective_constant

        optimal = not hit_limit and not heap or (
            not hit_limit and best_bound >= incumbent_value - _BOUND_TOL
        )
        status = SolveStatus.OPTIMAL if optimal else SolveStatus.FEASIBLE
        return Solution(
            status=status,
            objective=true_objective,
            values=values,
            solve_time=elapsed,
            backend=self.name,
            gap=gap if not optimal else 0.0,
            message=f"explored {nodes_explored} nodes",
            iterations=nodes_explored,
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _most_fractional(
        x: np.ndarray, integer_indices: np.ndarray
    ) -> Optional[int]:
        """Return the index of the integer variable farthest from integrality."""
        if integer_indices.size == 0:
            return None
        fractional = np.abs(x[integer_indices] - np.round(x[integer_indices]))
        worst = int(np.argmax(fractional))
        if fractional[worst] <= _INT_TOL:
            return None
        return int(integer_indices[worst])

    def _round_and_check(
        self,
        form,
        objective: np.ndarray,
        x: np.ndarray,
        integer_indices: np.ndarray,
        deadline: Optional[float] = None,
    ) -> Optional[Tuple[float, np.ndarray]]:
        """Try rounding the LP solution; re-solve the LP with integers fixed.

        Returns ``(objective, x)`` of a feasible integral solution or
        ``None``.  The time limit is honoured *inside* the heuristic: when
        the deadline has passed the heuristic LP is skipped entirely rather
        than blowing the budget between node checks.
        """
        if deadline is not None and time.perf_counter() > deadline:
            return None
        if integer_indices.size == 0:
            return float(objective @ x), x
        pinned = pinned_bounds(form, x)
        if pinned is None:
            return None
        return solve_lp(form, *pinned, deadline)


def _relative_gap(incumbent: float, bound: float) -> float:
    """Relative optimality gap between an incumbent and a lower bound."""
    if not math.isfinite(incumbent) or not math.isfinite(bound):
        return math.inf
    denom = max(1.0, abs(incumbent))
    return max(0.0, (incumbent - bound) / denom)
