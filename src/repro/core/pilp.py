"""The progressive ILP-based layout generation flow (P-ILP, Section 5).

:class:`PILPLayoutGenerator` chains the three phases together exactly as
Figure 7 of the paper shows:

1. planar microstrip routing with blurred devices (:mod:`repro.core.phase1`),
2. device visualisation and overlap fixing (:mod:`repro.core.phase2`),
3. iterative refinement with chain-point deletion / insertion and device
   rotation (:mod:`repro.core.phase3`),

and finally checks the result with the independent design-rule checker.  The
intermediate snapshots are kept so that examples and the documentation can
show the same phase-by-phase pictures the paper does.

Deviation from the paper: the flow repairs first and searches only when it
must.  Phases 1 and 2 keep the LP repairs of their warm starts, and Phase 3
refines the repaired Phase-2 layout.  Phase 2's warm-started ILP search runs
only as a fallback, when that round's final layout fails DRC, and a second
Phase-3 round follows it only when it changed the Phase-2 geometry.  On the
reduced benchmark circuits the search returned the repair's own layout, so
the fallback rarely pays for itself; on the five-net test circuit it is what
makes the layout DRC-clean.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union

from repro.circuit.netlist import Netlist
from repro.core.checkpoint import (
    CheckpointSink,
    CompletedPhase,
    ReplayedPhase,
    SolveCheckpoint,
)
from repro.core.config import PILPConfig
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_phase2
from repro.core.phase3 import run_phase3
from repro.core.result import FlowResult, PhaseResult
from repro.layout.drc import DRCReport, run_drc
from repro.layout.export_json import layout_from_dict, layout_to_dict
from repro.layout.layout import Layout
from repro.layout.metrics import LayoutMetrics, compute_metrics


class PILPLayoutGenerator:
    """Generate an RFIC layout with the paper's progressive ILP flow."""

    flow_name = "p-ilp"

    def __init__(self, config: Optional[PILPConfig] = None) -> None:
        self.config = config or PILPConfig()

    def generate(
        self, netlist: Netlist, checkpoint: Optional[CheckpointSink] = None
    ) -> FlowResult:
        """Run all three phases on a netlist and return the final result.

        The flow repairs first and searches only if it must.  Round 1 runs
        Phase 3 from Phase 2's LP repair.  Only when that final layout fails
        DRC does Phase 2 run its warm-started search from the Phase-1
        layout.  A search whose Phase-2 geometry equals the repair's would
        hand Phase 3 the same input, so round 1's result stands; otherwise
        round 2 runs Phase 3 from the search's layout and its result is
        returned.  The discarded round's cost is folded into the ``phase2``
        entry (:meth:`PhaseResult.after_attempts`), so the phase names stay
        ``phase1``, ``phase2``, ``phase3[i]`` and ``runtime`` and
        :meth:`FlowResult.profile` cover every solve.

        With a ``checkpoint`` sink the flow becomes crash-resumable: after
        every completed phase (Phase 3: every refinement iteration) the
        loop state is saved through the sink, and a run that finds a
        checkpoint on startup replays the completed phases' bookkeeping and
        continues at the next one.  Each phase is a deterministic function
        of (prior geometry, configuration), so the resumed run settles on
        the same final layout a cold run would — only the wall-clock
        ``runtime_s`` metadata differs.

        Raises
        ------
        InfeasibleModelError
            If Phase 1 cannot find any feasible planar routing, or Phase 2
            cannot re-insert the devices even after widening its confinement
            window.
        """
        start = time.perf_counter()
        config = self.config
        phases: List[Union[PhaseResult, ReplayedPhase]] = []
        completed: List[CompletedPhase] = []
        checkpoint_writes = 0
        resumed_from: Optional[str] = None
        replayed_elapsed = 0.0
        current_layout: Optional[Layout] = None
        initial_best: Optional[Layout] = None
        next_iteration = 0
        flow_round = 1
        phase2_repaired = False
        # Kept while the fallback search may still run.
        phase1_layout: Optional[Layout] = None
        repair_layout: Optional[Layout] = None

        state = checkpoint.load() if checkpoint is not None else None
        if state is not None:
            resumed_from = state.stage
            replayed_elapsed = state.elapsed_s
            next_iteration = state.next_iteration
            completed = list(state.completed)
            current_layout = layout_from_dict(state.layout_doc)
            if state.best_layout_doc is not None:
                initial_best = layout_from_dict(state.best_layout_doc)
            flow_round = state.round
            phase2_repaired = state.phase2_repaired
            if state.phase1_layout_doc is not None:
                phase1_layout = layout_from_dict(state.phase1_layout_doc)
            if state.repair_layout_doc is not None:
                repair_layout = layout_from_dict(state.repair_layout_doc)
            for item in state.completed:
                phases.append(
                    ReplayedPhase(item.phase, current_layout, item.summary, item.profile)
                )
        done = {phase.phase for phase in phases}

        def save_checkpoint(
            result: PhaseResult,
            layout: Layout,
            best: Optional[Layout],
            iteration: int,
        ) -> None:
            nonlocal checkpoint_writes
            completed.append(
                CompletedPhase(result.phase, result.summary(), result.profile_entry())
            )
            if checkpoint is None:
                return
            saved = checkpoint.save(
                SolveCheckpoint(
                    stage=result.phase,
                    completed=list(completed),
                    layout_doc=layout_to_dict(layout),
                    best_layout_doc=layout_to_dict(best) if best is not None else None,
                    next_iteration=iteration,
                    objective=result.solution.objective
                    if result.solution.is_feasible
                    else None,
                    elapsed_s=replayed_elapsed + (time.perf_counter() - start),
                    round=flow_round,
                    phase2_repaired=phase2_repaired,
                    phase1_layout_doc=_doc_or_none(phase1_layout),
                    repair_layout_doc=_doc_or_none(repair_layout),
                )
            )
            if saved:
                checkpoint_writes += 1

        if "phase1" not in done:
            phase1 = run_phase1(netlist, config)
            phases.append(phase1)
            current_layout = phase1_layout = phase1.layout
            save_checkpoint(phase1, phase1.layout, None, 0)

        if "phase2" not in done:
            phase2 = run_phase2(netlist, current_layout, config)
            phases.append(phase2)
            current_layout = phase2.layout
            phase2_repaired = phase2.solution.repaired
            if phase2_repaired:
                repair_layout = phase2.layout
            else:
                phase1_layout = None
            save_checkpoint(phase2, phase2.layout, None, 0)

        refinement_results, best_layout = run_phase3(
            netlist,
            current_layout,
            config,
            start_iteration=next_iteration,
            initial_best=initial_best,
            on_iteration=save_checkpoint,
        )
        phases.extend(refinement_results)
        timings: Dict[str, float] = {}
        final_layout, metrics, drc = _check(best_layout, timings)

        if flow_round == 1 and phase2_repaired and not drc.is_clean:
            search = run_phase2(netlist, phase1_layout, config, search=True)
            if _geometry(search.layout) == _geometry(repair_layout):
                # Phase 3 would see the same input: round 1's result stands.
                phases[1] = search.after_attempts(p.profile_entry() for p in phases[1:2])
            else:
                flow_round = 2
                phase1_layout = repair_layout = None
                phase2 = search.after_attempts(p.profile_entry() for p in phases[1:])
                phases = [phases[0], phase2]
                del completed[1:]
                save_checkpoint(phase2, search.layout, None, 0)
                refinement_results, best_layout = run_phase3(
                    netlist, search.layout, config, on_iteration=save_checkpoint
                )
                phases.extend(refinement_results)
                final_layout, metrics, drc = _check(best_layout, timings)

        runtime = replayed_elapsed + (time.perf_counter() - start)
        final_layout.metadata.update(
            {
                "flow": self.flow_name,
                "circuit": netlist.name,
                "runtime_s": runtime,
                "phases": [phase.phase for phase in phases],
            }
        )
        return FlowResult(
            flow=self.flow_name,
            circuit=netlist.name,
            layout=final_layout,
            metrics=metrics,
            drc=drc,
            runtime=runtime,
            phases=phases,
            timings=timings,
            resumed_from_phase=resumed_from,
            resume_saved_s=replayed_elapsed if resumed_from else 0.0,
            checkpoint_writes=checkpoint_writes,
        )

    def snapshots(self, result: FlowResult) -> Dict[str, Layout]:
        """Phase-by-phase layout snapshots (the panels of Figure 7)."""
        snapshots: Dict[str, Layout] = {}
        for phase in result.phases:
            snapshots[phase.phase] = phase.layout
        snapshots["final"] = result.layout
        return snapshots


def _check(
    best_layout: Layout, timings: Dict[str, float]
) -> Tuple[Layout, LayoutMetrics, DRCReport]:
    """Simplify a round's best layout and measure it; adds to ``timings``."""
    final_layout = best_layout.with_simplified_routes()
    metrics_started = time.perf_counter()
    metrics = compute_metrics(final_layout)
    drc_started = time.perf_counter()
    drc = run_drc(final_layout)
    drc_done = time.perf_counter()
    timings["metrics_s"] = timings.get("metrics_s", 0.0) + drc_started - metrics_started
    timings["drc_s"] = timings.get("drc_s", 0.0) + drc_done - drc_started
    return final_layout, metrics, drc


def _geometry(layout: Layout) -> Dict[str, object]:
    """A layout's document without its metadata."""
    doc = layout_to_dict(layout)
    doc.pop("metadata", None)
    return doc


def _doc_or_none(layout: Optional[Layout]) -> Optional[Dict[str, object]]:
    return layout_to_dict(layout) if layout is not None else None
