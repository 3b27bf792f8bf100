"""Result objects produced by the exact and progressive flows."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional

from repro.ilp.solution import Solution
from repro.layout.drc import DRCReport, crossing_violations
from repro.layout.layout import Layout
from repro.layout.metrics import LayoutMetrics


@dataclass
class PhaseResult:
    """Outcome of a single optimisation phase (or refinement iteration).

    Attributes
    ----------
    phase:
        Identifier such as ``"phase1"``, ``"phase2"``, ``"phase3[2]"`` or
        ``"exact"``.
    layout:
        Layout snapshot extracted from the phase's solution.
    solution:
        Raw solver outcome.
    runtime:
        Wall-clock seconds spent building the phase model, computing its
        warm start, solving it and extracting the layout, every attempt the
        phase discarded included (see :meth:`after_attempts`).  Preparing
        the phase's inputs (Phase 1's seed placement, Phase 2's legalised
        device points) is not part of it.
    length_errors:
        Signed equivalent-length error per net (against the phase's targets).
    bend_counts:
        Bend count per net.
    total_overlap:
        Sum of residual overlap slack (zero when overlap was forbidden).
    model_statistics:
        Variable / constraint counts of the phase model.
    model_build_time:
        Wall-clock seconds spent constructing the phase model (a subset of
        ``runtime``; the remainder is the warm start, solver time and layout
        extraction).
    levels:
        The exact flow's HiGHS searches, one row each in solve order (its
        relaxations and any full-model search; the repair LP is not one);
        empty for every other phase.
    """

    phase: str
    layout: Layout
    solution: Solution
    runtime: float
    length_errors: Dict[str, float] = field(default_factory=dict)
    bend_counts: Dict[str, int] = field(default_factory=dict)
    total_overlap: float = 0.0
    model_statistics: Dict[str, int] = field(default_factory=dict)
    model_build_time: float = 0.0
    levels: List[Dict[str, object]] = field(default_factory=list)

    @property
    def max_abs_length_error(self) -> float:
        if not self.length_errors:
            return 0.0
        return max(abs(error) for error in self.length_errors.values())

    @property
    def total_bends(self) -> int:
        return sum(self.bend_counts.values())

    @property
    def max_bends(self) -> int:
        return max(self.bend_counts.values()) if self.bend_counts else 0

    def after_attempts(self, discarded: Iterable[Mapping[str, float]]) -> "PhaseResult":
        """This phase with the cost of ``discarded`` attempts folded in.

        ``discarded`` holds the :meth:`profile_entry` rows (``wall_s``,
        ``model_build_s``, ``solver_s``) of attempts whose outcome was thrown
        away: a phase's failed solve (Phase 2's first window, a Phase-3
        hard-length model) or a round the flow discarded.  Their seconds are
        added to this phase's, so the flow's profile still covers every
        solve it ran.
        """
        entries = list(discarded)
        return replace(
            self,
            runtime=self.runtime + sum(entry["wall_s"] for entry in entries),
            model_build_time=self.model_build_time
            + sum(entry["model_build_s"] for entry in entries),
            solution=replace(
                self.solution,
                solve_time=self.solution.solve_time
                + sum(entry["solver_s"] for entry in entries),
            ),
        )

    def summary(self) -> Dict[str, object]:
        """Compact dictionary for logs and reports.

        ``crossings`` counts the net pairs whose routes cross in this
        phase's layout, by the design-rule checker's crossing check.
        """
        return {
            "phase": self.phase,
            "status": self.solution.status.value,
            "objective": round(self.solution.objective, 4)
            if self.solution.is_feasible
            else None,
            "runtime_s": round(self.runtime, 2),
            "total_bends": self.total_bends,
            "max_bends": self.max_bends,
            "max_abs_length_error_um": round(self.max_abs_length_error, 3),
            "total_overlap_um": round(self.total_overlap, 3),
            "crossings": len(crossing_violations(self.layout)),
        }

    def profile_entry(self) -> Dict[str, object]:
        """This phase's row of :meth:`FlowResult.profile`.

        Splits wall time into model build vs. solver and carries the
        backend's iteration count when it reports one.  Checkpoint resume
        replays these entries verbatim for phases it skips, so the entry
        must be a pure function of the phase outcome.
        """
        entry: Dict[str, object] = {
            "phase": self.phase,
            "wall_s": round(self.runtime, 6),
            "model_build_s": round(self.model_build_time, 6),
            "solver_s": round(self.solution.solve_time, 6),
            "solver_backend": self.solution.backend,
        }
        if self.solution.iterations is not None:
            entry["solver_iterations"] = int(self.solution.iterations)
        if self.levels:
            entry["levels"] = list(self.levels)
        return entry


@dataclass
class FlowResult:
    """Final outcome of a layout-generation flow (exact, P-ILP or baseline).

    Attributes
    ----------
    flow:
        Flow identifier (``"p-ilp"``, ``"exact-ilp"``, ``"manual-like"``).
    circuit:
        Netlist name.
    layout:
        The final layout.
    metrics:
        Bend / length metrics of the final layout.
    drc:
        Design-rule report of the final layout.
    runtime:
        Total wall-clock seconds.
    phases:
        Per-phase results in execution order (empty for single-shot flows).
    timings:
        Wall-clock seconds of flow stages outside the phase solves —
        currently ``drc_s`` and ``metrics_s`` (filled by the flows that
        measure them; empty otherwise).
    resumed_from_phase:
        Name of the checkpointed phase this run resumed after, or ``None``
        for a cold solve.
    resume_saved_s:
        Solve budget (wall-clock seconds) the resume skipped re-spending.
    checkpoint_writes:
        Number of phase checkpoints durably written during this run.
    """

    flow: str
    circuit: str
    layout: Layout
    metrics: LayoutMetrics
    drc: DRCReport
    runtime: float
    phases: List[PhaseResult] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    resumed_from_phase: Optional[str] = None
    resume_saved_s: float = 0.0
    checkpoint_writes: int = 0

    @property
    def is_clean(self) -> bool:
        """True when the final layout passes DRC."""
        return self.drc.is_clean

    def summary(self) -> Dict[str, object]:
        """The Table-1 style row for this flow run."""
        return {
            "flow": self.flow,
            "circuit": self.circuit,
            "area": self.metrics.area_label,
            "max_bends": self.metrics.max_bend_count,
            "total_bends": self.metrics.total_bend_count,
            "runtime_s": round(self.runtime, 2),
            "drc_clean": self.is_clean,
            "drc_violations": self.drc.count(),
            "max_abs_length_error_um": round(self.metrics.max_abs_length_error, 3),
        }

    def phase_table(self) -> List[Dict[str, object]]:
        """Per-phase summaries (for the progressive flow's progress report)."""
        return [phase.summary() for phase in self.phases]

    def profile(self) -> Dict[str, object]:
        """Per-stage cost breakdown of this run (the cache keeps it forever).

        The phase entries split wall time into model build vs. solver and
        carry the backend's iteration count when it reports one, so a perf
        regression in a cached result can be attributed to a stage without
        re-running the flow.
        """
        doc: Dict[str, object] = {
            "phases": [phase.profile_entry() for phase in self.phases],
            "total_s": round(self.runtime, 6),
        }
        for stage, seconds in sorted(self.timings.items()):
            doc[stage] = round(float(seconds), 6)
        if self.resumed_from_phase:
            doc["resumed_from_phase"] = self.resumed_from_phase
            doc["resume_saved_s"] = round(self.resume_saved_s, 6)
        if self.checkpoint_writes:
            doc["checkpoint_writes"] = int(self.checkpoint_writes)
        return doc
