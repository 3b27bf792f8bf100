"""Unit tests for the flow/phase result containers."""

import pytest

from repro.core.result import FlowResult, PhaseResult
from repro.ilp.solution import Solution, SolveStatus
from repro.geometry import ManhattanPath, Point
from repro.layout import RoutedMicrostrip, compute_metrics, run_drc
from repro.layout.drc import ViolationKind


def make_phase(layout, name="phase1", runtime=1.5):
    solution = Solution(status=SolveStatus.FEASIBLE, objective=12.0, values={})
    # The empty values dict means is_feasible is False, which is fine for a
    # pure container test; objective formatting still works.
    return PhaseResult(
        phase=name,
        layout=layout,
        solution=solution,
        runtime=runtime,
        length_errors={"ms_in": -2.0, "ms_out": 1.0},
        bend_counts={"ms_in": 1, "ms_out": 2},
        total_overlap=3.5,
        model_statistics={"variables": 10},
    )


class TestPhaseResult:
    def test_aggregates(self, hand_layout):
        phase = make_phase(hand_layout)
        assert phase.max_abs_length_error == pytest.approx(2.0)
        assert phase.total_bends == 3
        assert phase.max_bends == 2

    def test_summary_fields(self, hand_layout):
        summary = make_phase(hand_layout).summary()
        assert summary["phase"] == "phase1"
        assert summary["status"] == "feasible"
        assert summary["total_bends"] == 3
        assert summary["runtime_s"] == pytest.approx(1.5)

    def test_summary_counts_crossing_net_pairs(self, hand_layout):
        assert make_phase(hand_layout).summary()["crossings"] == 0
        drain = hand_layout.pin_position("M1", "D")
        pad_out = hand_layout.pin_position("P_OUT", "SIG")
        # Loop back over ms_in and cross it at x = 100 on the way to the pad.
        detour = [
            drain,
            Point(drain.x, 250.0),
            Point(100.0, 250.0),
            Point(100.0, 100.0),
            Point(pad_out.x, 100.0),
            pad_out,
        ]
        hand_layout.set_route(RoutedMicrostrip("ms_out", ManhattanPath(detour, width=10.0)))
        assert make_phase(hand_layout).summary()["crossings"] == 1
        assert run_drc(hand_layout).count(ViolationKind.CROSSING) == 1

    def test_empty_diagnostics(self, hand_layout):
        phase = PhaseResult(
            phase="exact",
            layout=hand_layout,
            solution=Solution(status=SolveStatus.OPTIMAL, objective=0.0, values={}),
            runtime=0.1,
        )
        assert phase.max_abs_length_error == 0.0
        assert phase.max_bends == 0


class TestFlowResult:
    def make_flow(self, hand_layout):
        return FlowResult(
            flow="manual-like",
            circuit="tiny",
            layout=hand_layout,
            metrics=compute_metrics(hand_layout),
            drc=run_drc(hand_layout),
            runtime=4.2,
            phases=[make_phase(hand_layout)],
        )

    def test_summary_row(self, hand_layout):
        row = self.make_flow(hand_layout).summary()
        assert row["flow"] == "manual-like"
        assert row["circuit"] == "tiny"
        assert row["area"] == "400x300"
        assert isinstance(row["drc_clean"], bool)

    def test_is_clean_reflects_drc(self, hand_layout):
        flow = self.make_flow(hand_layout)
        # The hand layout misses its length targets, so it is not clean.
        assert flow.is_clean is False
        assert flow.summary()["drc_violations"] > 0

    def test_phase_table(self, hand_layout):
        table = self.make_flow(hand_layout).phase_table()
        assert len(table) == 1
        assert table[0]["phase"] == "phase1"
