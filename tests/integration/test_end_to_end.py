"""End-to-end integration tests across subsystem boundaries."""

import pytest

pytestmark = pytest.mark.slow

from repro.circuit import load_netlist
from repro.layout import (
    load_layout,
    run_drc,
    save_layout,
    compute_metrics,
    layout_to_svg,
    smooth_layout,
)
from repro.rf import AmplifierModel, SignalChain, default_frequency_sweep
from tests.conftest import write_netlist


class TestLayoutPersistenceRoundTrip:
    def test_solved_layout_survives_serialisation(self, exact_tiny_result, tmp_path):
        """Solve -> save -> load -> re-check: the layout stays DRC-clean."""
        path = save_layout(exact_tiny_result.layout, tmp_path / "tiny_layout.json")
        reloaded = load_layout(path)
        assert reloaded.is_complete
        report = run_drc(reloaded)
        assert report.is_clean, report.summary()
        original = compute_metrics(exact_tiny_result.layout)
        recomputed = compute_metrics(reloaded)
        assert recomputed.total_bend_count == original.total_bend_count
        assert recomputed.max_abs_length_error == pytest.approx(
            original.max_abs_length_error, abs=1e-6
        )

    def test_netlist_round_trip_then_flow_inputs_match(
        self, session_tiny_netlist, tmp_path
    ):
        path = write_netlist(session_tiny_netlist, tmp_path / "tiny.json")
        reloaded = load_netlist(path)
        assert reloaded.summary() == session_tiny_netlist.summary()


class TestRenderingAndSmoothing:
    def test_solved_layout_renders_and_smooths(self, exact_tiny_result):
        svg = layout_to_svg(exact_tiny_result.layout)
        assert svg.count("<rect") >= 1 + exact_tiny_result.layout.netlist.num_devices
        smoothed = smooth_layout(exact_tiny_result.layout)
        for route in exact_tiny_result.layout.routes:
            # Smoothing shortens exactly when there are bends.
            change = smoothed[route.net_name].length - route.geometric_length
            if route.bend_count:
                assert change < 0
            else:
                assert change == pytest.approx(0.0, abs=1e-9)


class TestLayoutToRf:
    def test_exact_layout_matches_designed_response(
        self, exact_tiny_result, session_tiny_netlist
    ):
        """A layout with exact lengths barely perturbs the RF response."""
        chain = SignalChain.from_shorthand(
            "tiny",
            [
                ("device", "P_IN"),
                ("line", "ms_in"),
                ("device", "M1"),
                ("line", "ms_out"),
                ("device", "P_OUT"),
            ],
        )
        model = AmplifierModel(session_tiny_netlist, chain)
        frequencies = default_frequency_sweep(94.0, points=61)
        designed = model.simulate(frequencies)
        laid_out = model.simulate(frequencies, exact_tiny_result.layout)
        f0 = 94.0e9
        # Exact lengths: only the (small) bend discontinuities differ.
        assert abs(laid_out.gain_db(f0) - designed.gain_db(f0)) < 0.5


class TestProgressiveFlowArtifacts:
    def test_snapshots_exportable(self, pilp_small_result, tmp_path):
        from repro.core import PILPLayoutGenerator
        from repro.layout import save_phase_snapshots

        generator = PILPLayoutGenerator()
        snapshots = generator.snapshots(pilp_small_result)
        assert "phase1" in snapshots and "final" in snapshots
        paths = save_phase_snapshots(snapshots, tmp_path / "snaps")
        assert len(paths) == len(snapshots)
        for path in paths:
            assert path.exists() and path.stat().st_size > 0

    def test_final_layout_persists(self, pilp_small_result, tmp_path):
        path = save_layout(pilp_small_result.layout, tmp_path / "small5.json")
        reloaded = load_layout(path)
        assert reloaded.is_complete
        assert run_drc(reloaded).is_clean
