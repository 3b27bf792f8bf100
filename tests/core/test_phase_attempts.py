"""A phase's runtime and profile cover every solve attempt it made.

Phase 2 retries in a doubled confinement window and a Phase-3 iteration
falls back from the hard-length model to the soft one; the failed first
attempt is rigged here to take ``FAILED_S`` and return ``INFEASIBLE``.
When the flow falls back to Phase 2's search, the discarded round is
folded into the ``phase2`` entry.  Every phase's runtime also covers the
extraction of its layout.
"""

import time
from dataclasses import replace

import pytest

from repro.core import ExactLayoutGenerator, PILPLayoutGenerator, phase2, phase3, pilp
from repro.core.config import PILPConfig
from repro.core.model_builder import BuildResult
from repro.core.phase1 import run_phase1
from repro.ilp.solution import Solution, SolveStatus

FAILED_S = 0.5


def _fail(build, *args, **kwargs):
    time.sleep(FAILED_S)
    return Solution(status=SolveStatus.INFEASIBLE, solve_time=FAILED_S)


def _recording(original, retries):
    def solve(build, *args, **kwargs):
        retries.append(original(build, *args, **kwargs))
        return retries[-1]

    return solve


def _covers_both_attempts(entry, retry):
    assert entry["solver_s"] == pytest.approx(FAILED_S + retry.solve_time, abs=1e-5)
    assert entry["wall_s"] >= entry["solver_s"]


def test_phase2_time_covers_the_attempt_before_the_widened_window(tiny_netlist, monkeypatch):
    config = PILPConfig.fast()
    retries = []
    retry = _recording(phase2.solve_phase_model, retries)
    attempts = iter([_fail, retry])
    monkeypatch.setattr(
        phase2, "solve_phase_model", lambda *args, **kwargs: next(attempts)(*args, **kwargs)
    )
    result = PILPLayoutGenerator(config).generate(tiny_netlist)
    phase = result.phases[1]
    assert phase.layout.metadata["confinement_window_um"] == 2.0 * config.confinement_window
    _covers_both_attempts(result.profile()["phases"][1], retries[0])


def test_phase3_time_covers_the_failed_hard_length_attempt(tiny_netlist, monkeypatch):
    config = PILPConfig.fast()
    layout = phase2.run_phase2(
        tiny_netlist, run_phase1(tiny_netlist, config).layout, config
    ).layout
    plan = replace(phase3.plan_refinement(tiny_netlist, layout, config), use_exact_lengths=True)
    retries = []
    retry = _recording(phase3.solve_phase_model, retries)

    def hard_fails(build, *args, **kwargs):
        solve = _fail if build.options.exact_lengths else retry
        return solve(build, *args, **kwargs)

    monkeypatch.setattr(phase3, "solve_phase_model", hard_fails)
    result = phase3.run_phase3_iteration(tiny_netlist, layout, config, 1, plan)
    assert result.layout.metadata["exact_lengths"] is False
    _covers_both_attempts(result.profile_entry(), retries[0])


def test_flow_time_covers_the_discarded_round_and_the_search(tiny_netlist, monkeypatch):
    from repro.layout.drc import DRCReport, DRCViolation, ViolationKind

    violation = DRCViolation(ViolationKind.CROSSING, "ms_in", "ms_out")
    monkeypatch.setattr(pilp, "run_drc", lambda layout: DRCReport([violation]))
    phase2_runs, phase3_rounds = [], []
    monkeypatch.setattr(pilp, "run_phase2", _recording(pilp.run_phase2, phase2_runs))
    monkeypatch.setattr(pilp, "run_phase3", _recording(pilp.run_phase3, phase3_rounds))
    result = PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)

    repair, search = phase2_runs
    assert repair.solution.repaired and not search.solution.repaired
    (discarded, _), (kept, _) = phase3_rounds
    names = ["phase1", "phase2"] + [f"phase3[{i}]" for i in range(len(kept))]
    assert [phase.phase for phase in result.phases] == names
    assert result.layout.metadata["phases"] == names
    assert result.phases[2:] == kept

    profile = result.profile()
    folded = [repair, *discarded, search]
    entry = profile["phases"][1]
    assert entry["solver_s"] == pytest.approx(
        sum(run.solution.solve_time for run in folded), abs=1e-5
    )
    assert entry["wall_s"] == pytest.approx(sum(run.runtime for run in folded), abs=1e-5)
    covered = sum(phase["wall_s"] for phase in profile["phases"])
    assert profile["total_s"] >= covered + profile["drc_s"] + profile["metrics_s"]


EXTRACT_S = 0.2


@pytest.mark.parametrize("generator", [PILPLayoutGenerator, ExactLayoutGenerator])
def test_every_phase_runtime_covers_its_extraction(generator, tiny_netlist, monkeypatch):
    extract = BuildResult.extract_layout

    def slow_extract(self, *args, **kwargs):
        time.sleep(EXTRACT_S)
        return extract(self, *args, **kwargs)

    monkeypatch.setattr(BuildResult, "extract_layout", slow_extract)
    profile = generator(PILPConfig.fast()).generate(tiny_netlist).profile()
    assert profile["phases"]
    for entry in profile["phases"]:
        assert entry["wall_s"] >= entry["model_build_s"] + entry["solver_s"] + EXTRACT_S, entry
