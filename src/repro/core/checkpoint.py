"""Per-phase checkpoint state of a progressive solve.

The P-ILP flow is a chain of deterministic phase solves: each phase is a
function of (prior geometry, configuration), and the configuration — seed
included — is part of the job's content hash.  That makes the flow
*resumable*: the geometry at a phase boundary, plus the bookkeeping the
final :class:`~repro.core.result.FlowResult` needs for the phases already
behind it, is everything a fresh process requires to continue at phase
N+1 and settle on the **same** final layout a cold run would have produced
(the sole exception is the wall-clock ``runtime_s`` metadata, which is
inherently run-dependent — see ROADMAP "Durable solves & cache integrity").

The flow runs in up to two rounds (see :mod:`repro.core.pilp`): round 1
refines Phase 2's LP repair, and only when its final layout fails DRC does
a fallback Phase-2 search start round 2 from the Phase-1 layout.  A
checkpoint therefore also records the round, whether Phase 2 kept its
repair, and — while that fallback may still run — the Phase-1 layout it
starts from and the repaired Phase-2 layout it is compared against.
Re-running Phase 1 to recover its layout would not be exact: a cold
Phase 1 searches on the clock.

This module owns the *state* and its JSON form.  Persistence — staging +
atomic rename into the result cache's ``partial/`` area, digests, fault
points — lives in :mod:`repro.runner.cache`; the flow only sees the small
:class:`CheckpointSink` interface so the core stays free of storage
concerns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.layout.layout import Layout

#: Version of the checkpoint document.  Bump when the state shape (or the
#: resume semantics) change; older checkpoints are then discarded and the
#: solve degrades to a cold start.
CHECKPOINT_SCHEMA_VERSION = 2


@dataclass
class CompletedPhase:
    """Bookkeeping of one phase that finished before the checkpoint."""

    phase: str
    summary: Dict[str, object]
    profile: Dict[str, object]

    def to_doc(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "summary": dict(self.summary),
            "profile": dict(self.profile),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "CompletedPhase":
        return cls(
            phase=str(doc["phase"]),
            summary=dict(doc["summary"]),
            profile=dict(doc["profile"]),
        )


@dataclass
class SolveCheckpoint:
    """Everything needed to resume a progressive solve at the next phase."""

    #: Name of the last completed phase (``"phase1"``, ``"phase3[2]"``, ...).
    stage: str
    #: Per-phase bookkeeping in execution order.
    completed: List[CompletedPhase] = field(default_factory=list)
    #: Layout document at the phase boundary (netlist embedded) — the next
    #: phase's input geometry and warm start.
    layout_doc: Dict[str, object] = field(default_factory=dict)
    #: Phase-3 incumbent layout document (``None`` before Phase 3 starts).
    best_layout_doc: Optional[Dict[str, object]] = None
    #: Index of the next Phase-3 refinement iteration to run.
    next_iteration: int = 0
    #: Incumbent objective of the last completed phase (``None`` when the
    #: phase reported no feasible objective).
    objective: Optional[float] = None
    #: Wall-clock seconds of solve budget the checkpoint represents.
    elapsed_s: float = 0.0
    #: Flow round running: 1 refines Phase 2's repair, 2 the fallback search.
    round: int = 1
    #: Whether round 1's Phase 2 kept its LP repair.
    phase2_repaired: bool = False
    #: Phase-1 layout document, kept while the fallback search may still run.
    phase1_layout_doc: Optional[Dict[str, object]] = None
    #: Repaired Phase-2 layout document, kept alongside ``phase1_layout_doc``.
    repair_layout_doc: Optional[Dict[str, object]] = None

    def to_doc(self) -> Dict[str, object]:
        return {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "stage": self.stage,
            "completed": [item.to_doc() for item in self.completed],
            "layout": dict(self.layout_doc),
            "best_layout": _optional_doc(self.best_layout_doc),
            "next_iteration": int(self.next_iteration),
            "objective": self.objective,
            "elapsed_s": float(self.elapsed_s),
            "round": int(self.round),
            "phase2_repaired": bool(self.phase2_repaired),
            "phase1_layout": _optional_doc(self.phase1_layout_doc),
            "repair_layout": _optional_doc(self.repair_layout_doc),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "SolveCheckpoint":
        """Parse a checkpoint document.

        Raises
        ------
        ValueError
            On any malformed or version-mismatched document, so callers can
            treat the checkpoint as torn and fall back to a cold solve.
        """
        try:
            if int(doc["schema"]) != CHECKPOINT_SCHEMA_VERSION:
                raise ValueError(
                    f"checkpoint schema {doc['schema']!r} != "
                    f"{CHECKPOINT_SCHEMA_VERSION}"
                )
            completed = [CompletedPhase.from_doc(item) for item in doc["completed"]]
            if not completed:
                raise ValueError("checkpoint lists no completed phases")
            best = doc.get("best_layout")
            objective = doc.get("objective")
            flow_round = int(doc["round"])
            if flow_round not in (1, 2):
                raise ValueError(f"checkpoint round {flow_round!r} is not 1 or 2")
            fallback_layouts = (doc["phase1_layout"], doc["repair_layout"])
            if flow_round == 1 and doc["phase2_repaired"] and None in fallback_layouts:
                raise ValueError("round-1 checkpoint lacks the fallback's layouts")
            return cls(
                stage=str(doc["stage"]),
                completed=completed,
                layout_doc=dict(doc["layout"]),
                best_layout_doc=_optional_doc(best),
                next_iteration=int(doc["next_iteration"]),
                objective=float(objective) if objective is not None else None,
                elapsed_s=float(doc["elapsed_s"]),
                round=flow_round,
                phase2_repaired=bool(doc["phase2_repaired"]),
                phase1_layout_doc=_optional_doc(doc["phase1_layout"]),
                repair_layout_doc=_optional_doc(doc["repair_layout"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed checkpoint document: {exc}") from exc


def _optional_doc(doc: Optional[Dict[str, object]]) -> Optional[Dict[str, object]]:
    return dict(doc) if doc is not None else None


class ReplayedPhase:
    """Stand-in for a :class:`~repro.core.result.PhaseResult` whose solve
    was skipped because a checkpoint already contained its outcome.

    Carries the stored summary and profile entry *verbatim*, so the final
    result's ``phase_table()`` and ``profile()`` match what the cold run
    recorded.  The per-phase layout snapshot is not preserved across a
    resume; ``layout`` is the checkpoint-boundary geometry for every
    replayed phase.
    """

    def __init__(
        self,
        phase: str,
        layout: Layout,
        summary: Dict[str, object],
        profile: Dict[str, object],
    ) -> None:
        self.phase = phase
        self.layout = layout
        self._summary = dict(summary)
        self._profile = dict(profile)

    def summary(self) -> Dict[str, object]:
        return dict(self._summary)

    def profile_entry(self) -> Dict[str, object]:
        return dict(self._profile)


class CheckpointSink:
    """Interface the flow saves checkpoints through (default: no-op).

    :meth:`save` returns ``True`` only when the checkpoint was durably
    written — persistence failures are *contained* by implementations (a
    checkpoint is an optimisation, never worth failing the solve over).
    """

    def load(self) -> Optional[SolveCheckpoint]:
        return None

    def save(self, checkpoint: SolveCheckpoint) -> bool:  # noqa: ARG002
        return False
