"""Per-phase solve checkpoints: serialization and bit-identical resume.

The determinism contract under test: every phase of the progressive flow
is a deterministic function of (prior geometry, configuration), so a solve
resumed from any phase checkpoint must settle to exactly the layout the
uninterrupted cold solve produces.  "Exactly" means the exported layout
documents are equal after removing ``metadata.runtime_s`` — wall-clock is
the one field that legitimately differs between any two runs of the same
solve, interrupted or not.
"""

import json

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointSink,
    CompletedPhase,
    SolveCheckpoint,
)
from repro.core import pilp
from repro.core.config import PILPConfig
from repro.core.pilp import PILPLayoutGenerator
from repro.layout.drc import DRCReport, DRCViolation, ViolationKind
from repro.layout.export_json import layout_to_dict
from tests.conftest import build_tiny_netlist

pytestmark = pytest.mark.slow  # full (tiny) P-ILP solves


def normalized(layout) -> str:
    """Canonical form of a layout for bit-identity assertions."""
    doc = layout_to_dict(layout)
    doc.get("metadata", {}).pop("runtime_s", None)
    return json.dumps(doc, sort_keys=True)


class RecordingSink(CheckpointSink):
    """Keeps every checkpoint in memory; replays a chosen one on load."""

    def __init__(self, resume_from=None):
        self.saved = []
        self.resume_from = resume_from

    def load(self):
        return self.resume_from

    def save(self, checkpoint):
        self.saved.append(checkpoint)
        return True


@pytest.fixture(scope="module")
def cold():
    """One uninterrupted solve, recording each phase's checkpoint."""
    netlist = build_tiny_netlist()
    sink = RecordingSink()
    result = PILPLayoutGenerator().generate(netlist, checkpoint=sink)
    return netlist, sink, result


class TestSerialization:
    def test_checkpoint_document_round_trip(self, cold):
        _, sink, _ = cold
        for checkpoint in sink.saved:
            doc = checkpoint.to_doc()
            rebuilt = SolveCheckpoint.from_doc(doc)
            assert rebuilt.stage == checkpoint.stage
            assert rebuilt.next_iteration == checkpoint.next_iteration
            assert rebuilt.layout_doc == checkpoint.layout_doc
            assert rebuilt.best_layout_doc == checkpoint.best_layout_doc
            assert [p.phase for p in rebuilt.completed] == [
                p.phase for p in checkpoint.completed
            ]

    def test_completed_phase_round_trip(self, cold):
        _, sink, _ = cold
        phase = sink.saved[-1].completed[0]
        rebuilt = CompletedPhase.from_doc(phase.to_doc())
        assert rebuilt.phase == phase.phase
        assert rebuilt.summary == phase.summary
        assert rebuilt.profile == phase.profile

    def test_schema_version_mismatch_rejected(self, cold):
        _, sink, _ = cold
        doc = sink.saved[0].to_doc()
        doc["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            SolveCheckpoint.from_doc(doc)

    def test_empty_completed_list_rejected(self, cold):
        _, sink, _ = cold
        doc = sink.saved[0].to_doc()
        doc["completed"] = []
        with pytest.raises(ValueError):
            SolveCheckpoint.from_doc(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError):
            SolveCheckpoint.from_doc({"schema": CHECKPOINT_SCHEMA_VERSION})

    def test_pending_fallback_without_its_layouts_rejected(self, cold):
        _, sink, _ = cold
        doc = sink.saved[1].to_doc()
        assert doc["round"] == 1 and doc["phase2_repaired"]
        doc["phase1_layout"] = None
        with pytest.raises(ValueError):
            SolveCheckpoint.from_doc(doc)


class TestResumeDeterminism:
    def test_cold_run_checkpoints_every_phase(self, cold):
        _, sink, result = cold
        stages = [c.stage for c in sink.saved]
        assert stages[:2] == ["phase1", "phase2"]
        assert result.checkpoint_writes == len(sink.saved)
        assert result.resumed_from_phase is None

    @pytest.mark.parametrize("index", [0, 1, -1])
    def test_resume_from_any_phase_is_bit_identical(self, cold, index):
        netlist, sink, result = cold
        state = sink.saved[index]
        resumed_sink = RecordingSink(resume_from=state)
        resumed = PILPLayoutGenerator().generate(
            netlist, checkpoint=resumed_sink
        )
        assert normalized(resumed.layout) == normalized(result.layout)
        assert resumed.resumed_from_phase == state.stage
        assert resumed.resume_saved_s == pytest.approx(state.elapsed_s)
        # Replayed phases report the stored per-phase numbers verbatim.
        assert [p.phase for p in resumed.phases] == [
            p.phase for p in result.phases
        ]

    def test_resume_after_final_phase_runs_nothing_extra(self, cold):
        netlist, sink, result = cold
        state = sink.saved[-1]
        resumed_sink = RecordingSink(resume_from=state)
        resumed = PILPLayoutGenerator().generate(
            netlist, checkpoint=resumed_sink
        )
        # Everything was already done: no fresh checkpoints, no extra
        # refinement iterations beyond what the cold run performed.
        assert resumed_sink.saved == []
        assert len(resumed.phases) == len(result.phases)
        assert normalized(resumed.layout) == normalized(result.layout)

    def test_resume_runtime_includes_replayed_budget(self, cold):
        netlist, sink, _ = cold
        state = sink.saved[0]
        resumed = PILPLayoutGenerator().generate(
            netlist, checkpoint=RecordingSink(resume_from=state)
        )
        assert resumed.runtime >= state.elapsed_s

    def test_profile_reports_resume_fields(self, cold):
        netlist, sink, _ = cold
        state = sink.saved[1]
        resumed_sink = RecordingSink(resume_from=state)
        resumed = PILPLayoutGenerator().generate(
            netlist, checkpoint=resumed_sink
        )
        profile = resumed.profile()
        assert profile["resumed_from_phase"] == state.stage
        # profile() rounds to 6 decimals, so compare on that absolute grid.
        assert profile["resume_saved_s"] == pytest.approx(state.elapsed_s, abs=5e-7)
        # Only the phases run live this time wrote fresh checkpoints.
        assert profile["checkpoint_writes"] == len(resumed_sink.saved)
        assert len(resumed_sink.saved) == len(resumed.phases) - len(
            state.completed
        )


def dirty_final_drc(patch):
    """Make the flow's final DRC fail, so round 1 falls back to the search."""
    violation = DRCViolation(ViolationKind.CROSSING, "ms_in", "ms_out")
    patch.setattr(pilp, "run_drc", lambda layout: DRCReport([violation]))


@pytest.fixture(scope="module")
def fallback():
    """One uninterrupted solve that runs the fallback search and round 2."""
    netlist = build_tiny_netlist()
    sink = RecordingSink()
    with pytest.MonkeyPatch.context() as patch:
        dirty_final_drc(patch)
        result = PILPLayoutGenerator(PILPConfig.fast()).generate(netlist, checkpoint=sink)
    return netlist, sink, result


class TestFallbackResume:
    def test_checkpoints_keep_the_fallback_inputs_until_the_search(self, fallback):
        _, sink, _ = fallback
        rounds = [(c.round, c.stage) for c in sink.saved]
        assert rounds[:2] == [(1, "phase1"), (1, "phase2")]
        assert rounds.index((2, "phase2")) > 2
        for state in sink.saved:
            pending = state.round == 1
            assert (state.phase1_layout_doc is not None) == pending
            assert (state.repair_layout_doc is not None) == (pending and state.stage != "phase1")
            assert state.phase2_repaired == (state.stage != "phase1" or state.round == 2)

    def test_resume_from_every_checkpoint_is_bit_identical(self, fallback, monkeypatch):
        netlist, sink, result = fallback
        dirty_final_drc(monkeypatch)
        for state in sink.saved:
            resumed = PILPLayoutGenerator(PILPConfig.fast()).generate(
                netlist, checkpoint=RecordingSink(resume_from=state)
            )
            where = f"round {state.round} {state.stage}"
            assert normalized(resumed.layout) == normalized(result.layout), where
            assert [p.phase for p in resumed.phases] == [p.phase for p in result.phases], where
