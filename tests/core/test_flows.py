"""Tests of the exact flow, the progressive flow and their phase mechanics.

The solver-heavy fixtures are session-scoped (see ``conftest.py``), so the
MILP work happens once; the tests here assert the properties the paper
claims of the resulting layouts: exact lengths, planarity, spacing, pads on
the boundary, and few bends.
"""

import pytest

from repro.core import BuildOptions, PILPConfig, RficModelBuilder, plan_refinement
from repro.core.exact import build_exact_model
from repro.core.result import FlowResult, PhaseResult
from repro.ilp.solution import SolveStatus
from repro.layout import ViolationKind, compute_metrics, run_drc

pytestmark = pytest.mark.slow


class TestExactFlow:
    def test_layout_is_drc_clean(self, exact_tiny_result):
        assert isinstance(exact_tiny_result, FlowResult)
        assert exact_tiny_result.drc.is_clean, exact_tiny_result.drc.summary()

    def test_lengths_match_exactly(self, exact_tiny_result):
        metrics = exact_tiny_result.metrics
        assert metrics.max_abs_length_error <= 0.5

    def test_bends_are_few(self, exact_tiny_result):
        # Two nets in a wide-open area: the optimum needs at most one bend
        # per net (and the solver proves it).
        assert exact_tiny_result.metrics.max_bend_count <= 1
        assert exact_tiny_result.metrics.total_bend_count <= 2

    def test_summary_row_fields(self, exact_tiny_result):
        row = exact_tiny_result.summary()
        assert row["flow"] == "exact-ilp"
        assert row["circuit"] == "tiny"
        assert row["drc_clean"] is True

    def test_phase_records_exist(self, exact_tiny_result):
        assert len(exact_tiny_result.phases) == 1
        phase = exact_tiny_result.phases[0]
        assert isinstance(phase, PhaseResult)
        assert phase.phase == "exact"
        assert phase.solution.is_feasible

    def test_metadata_describes_flow(self, exact_tiny_result):
        assert exact_tiny_result.layout.metadata["flow"] == "exact-ilp"

    def test_optimum_is_certified_on_three_chain_points(self, exact_tiny_result):
        """No straight layout exists, and the level giving ms_in 3 chain points lifts."""
        metadata = exact_tiny_result.layout.metadata
        assert metadata["bend_floor"] == 1
        assert metadata["certified_by_chain_points"] == {"ms_in": 3, "ms_out": 2}
        solution = exact_tiny_result.phases[0].solution
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(24.0)
        assert "certified by exact[tiny][ms_in: 3 chain points]" in solution.message
        assert exact_tiny_result.metrics.total_bend_count == 1

    def test_profile_covers_every_level(self, session_tiny_netlist, monkeypatch):
        """Solver seconds and nodes sum every HiGHS run, the repair LP included.

        The phase's ``levels`` give each relaxation's solve; with the
        repair's seconds they add up to ``solver_s``.
        """
        from repro.core import ExactLayoutGenerator
        from repro.ilp.backends.highs import HighsBackend

        runs = {"solve": [], "repair": []}
        for method in runs:
            original = getattr(HighsBackend, method)

            def recording(self, *args, _original=original, _runs=runs[method], **kwargs):
                _runs.append(_original(self, *args, **kwargs))
                return _runs[-1]

            monkeypatch.setattr(HighsBackend, method, recording)
        result = ExactLayoutGenerator(PILPConfig.fast()).generate(session_tiny_netlist)
        entry = result.profile()["phases"][0]
        every_run = runs["solve"] + runs["repair"]
        assert (len(runs["solve"]), len(runs["repair"])) == (2, 1)
        assert entry["solver_s"] == pytest.approx(
            sum(run.solve_time for run in every_run), abs=1e-5
        )
        assert entry["solver_iterations"] == sum(run.iterations or 0 for run in every_run)
        assert entry["solver_iterations"] > 0
        assert entry["levels"] == [
            {
                "chain_points": chain_points,
                "status": run.status.value,
                "nodes": run.iterations,
                "solve_s": pytest.approx(run.solve_time, abs=1e-6),
            }
            for chain_points, run in zip(
                ({"ms_in": 2, "ms_out": 2}, {"ms_in": 3, "ms_out": 2}), runs["solve"]
            )
        ]
        level_s = sum(level["solve_s"] for level in entry["levels"])
        assert level_s + runs["repair"][0].solve_time == pytest.approx(
            entry["solver_s"], abs=1e-5
        )

    def test_certified_objective_is_the_full_models_optimum(self, session_tiny_netlist):
        """The certificate agrees with the full model searched to gap 0."""
        from repro.core import ExactLayoutGenerator

        config = PILPConfig.fast()
        certified = ExactLayoutGenerator(config).generate(session_tiny_netlist)
        assert certified.layout.metadata["certified_by_chain_points"] is not None
        full = build_exact_model(session_tiny_netlist, config).model.solve(
            time_limit=120.0, mip_gap=0.0
        )
        assert full.status is SolveStatus.OPTIMAL
        assert certified.phases[0].solution.objective == pytest.approx(full.objective)

    def test_profile_has_every_stage(self, exact_tiny_result):
        profile = exact_tiny_result.profile()
        assert profile["phases"][0]["model_build_s"] > 0
        assert {"drc_s", "metrics_s"} <= set(profile)

    def test_runtime_covers_extraction_metrics_and_drc(self, exact_tiny_result):
        """Like the P-ILP flow's, the exact runtime ends after the final DRC."""
        profile = exact_tiny_result.profile()
        stages = profile["phases"][0]["wall_s"] + profile["metrics_s"] + profile["drc_s"]
        assert profile["total_s"] >= stages
        assert exact_tiny_result.layout.metadata["runtime_s"] == exact_tiny_result.runtime

    def test_bend_and_rows_keep_the_optimum(self, session_tiny_netlist):
        """Solved to gap 0, the exact model has the same optimum without its AND rows."""
        config = PILPConfig.fast()
        options = BuildOptions(exact_lengths=True)
        without_rows = RficModelBuilder(session_tiny_netlist, config, options).build()
        with_rows = build_exact_model(session_tiny_netlist, config)
        interior_points = sum(len(net.segments) - 1 for net in with_rows.nets.values())
        assert (
            with_rows.model.num_constraints
            == without_rows.model.num_constraints + 2 * interior_points
        )
        solutions = [
            build.model.solve(time_limit=120.0, mip_gap=0.0) for build in (without_rows, with_rows)
        ]
        assert all(solution.status is SolveStatus.OPTIMAL for solution in solutions)
        assert solutions[0].objective == pytest.approx(solutions[1].objective)


class TestProgressiveFlow:
    def test_runs_all_phases(self, pilp_small_result):
        names = [phase.phase for phase in pilp_small_result.phases]
        assert names[0] == "phase1"
        assert names[1] == "phase2"
        assert any(name.startswith("phase3") for name in names)

    def test_final_layout_complete(self, pilp_small_result):
        assert pilp_small_result.layout.is_complete

    def test_final_layout_is_clean(self, pilp_small_result):
        report = pilp_small_result.drc
        assert report.is_clean, report.summary()

    def test_lengths_match(self, pilp_small_result):
        assert pilp_small_result.metrics.max_abs_length_error <= 0.5

    def test_pads_on_boundary(self, pilp_small_result):
        report = run_drc(pilp_small_result.layout)
        assert report.count(ViolationKind.PAD_NOT_ON_BOUNDARY) == 0

    def test_phase1_reports_blurred_diagnostics(self, pilp_small_result):
        phase1 = pilp_small_result.phases[0]
        assert phase1.model_statistics["binary_variables"] > 0
        assert phase1.runtime > 0

    def test_phase_table_rows(self, pilp_small_result):
        rows = pilp_small_result.phase_table()
        assert len(rows) == len(pilp_small_result.phases)
        assert all("status" in row for row in rows)
        assert [row["crossings"] for row in rows] == [
            run_drc(phase.layout).count(ViolationKind.CROSSING)
            for phase in pilp_small_result.phases
        ]

    def test_runtime_accounts_for_phases(self, pilp_small_result):
        phase_total = sum(phase.runtime for phase in pilp_small_result.phases)
        assert pilp_small_result.runtime >= phase_total * 0.95

    def test_metrics_match_recomputation(self, pilp_small_result):
        recomputed = compute_metrics(pilp_small_result.layout)
        assert recomputed.total_bend_count == pilp_small_result.metrics.total_bend_count
        assert recomputed.max_bend_count == pilp_small_result.metrics.max_bend_count


class TestBaselineComparison:
    def test_pilp_uses_no_more_bends_than_manual(
        self, pilp_small_result, manual_small_result
    ):
        # The paper's headline qualitative result (Table 1).
        assert (
            pilp_small_result.metrics.total_bend_count
            <= manual_small_result.metrics.total_bend_count
        )

    def test_manual_layout_is_complete(self, manual_small_result):
        assert manual_small_result.layout.is_complete
        assert manual_small_result.flow == "manual-like"

    def test_manual_lengths_are_approximately_matched(self, manual_small_result):
        # The serpentine router matches equivalent lengths within a couple of
        # micrometres (its documented tolerance).
        assert manual_small_result.metrics.max_abs_length_error <= 5.0


class TestRefinementPlanning:
    def test_plan_on_clean_layout_deletes_unused_points(
        self, pilp_small_result, session_small_netlist, session_config
    ):
        plan = plan_refinement(
            session_small_netlist, pilp_small_result.layout, session_config
        )
        assert isinstance(plan.chain_positions, dict)
        assert set(plan.chain_positions) == set(session_small_netlist.microstrip_names)
        # A clean layout needs no inserted chain points.
        assert not plan.inserted_points

    def test_plan_inserts_points_for_mismatched_layout(
        self, hand_layout, tiny_netlist, test_config
    ):
        plan = plan_refinement(tiny_netlist, hand_layout, test_config)
        # The hand layout misses both length targets badly, so both nets
        # receive additional chain points for detours.
        assert set(plan.inserted_points) == {"ms_in", "ms_out"}
        for net_name, points in plan.chain_positions.items():
            assert len(points) <= test_config.max_chain_points
