"""Phase 1 settles by LP repair of the seed; the MIP search is the fallback."""

from repro.circuits import get_circuit
from repro.core.config import PILPConfig
from repro.core.phase1 import run_phase1
from repro.ilp.backends.highs import HighsBackend
from repro.ilp.solution import SolveStatus
from repro.layout.export_json import layout_to_dict


def test_failed_repair_falls_back_to_the_warm_started_mip(tiny_netlist, monkeypatch):
    highs_solves = []
    original = HighsBackend.solve

    def counting(self, model, **kwargs):
        highs_solves.append(kwargs)
        return original(self, model, **kwargs)

    monkeypatch.setattr(HighsBackend, "solve", counting)
    monkeypatch.setattr(HighsBackend, "repair", lambda self, model, warm_start: None)
    result = run_phase1(tiny_netlist, PILPConfig.fast())
    assert len(highs_solves) == 1
    assert highs_solves[0]["warm_start"]
    assert result.solution.is_feasible
    assert "repaired" not in result.solution.message


def test_phase1_is_deterministic_on_reduced_buffer60():
    netlist = get_circuit("buffer60", "reduced").netlist
    first = run_phase1(netlist, PILPConfig.fast())
    second = run_phase1(netlist, PILPConfig.fast())
    assert first.solution.status is SolveStatus.FEASIBLE
    assert layout_to_dict(first.layout) == layout_to_dict(second.layout)
