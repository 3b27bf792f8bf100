"""Hash ⇒ output: the same job settles to the same layout, run after run.

Every phase of these jobs is an LP repair or a solve HiGHS proves optimal,
so no wall-clock limit decides the result.  The reduced circuits owe that
to their crossing-free Phase-1 seeds: Phase 3 starts from a planar layout
and each of its searches ends optimal.
"""

import pytest

from dataclasses import replace

from repro.circuits import get_circuit
from repro.core import ExactLayoutGenerator, PILPLayoutGenerator
from repro.core.config import PILPConfig
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_phase2
from repro.layout.export_json import layout_to_dict
from repro.loadgen.workload import tiny_workload_netlist
from repro.runner import LayoutJob, WorkerPool


def _without_runtime(doc):
    doc = dict(doc)
    doc["metadata"] = {k: v for k, v in doc["metadata"].items() if k != "runtime_s"}
    return doc


def _benchmark_config():
    config = PILPConfig.fast()
    return config.with_updates(
        **{
            name: replace(getattr(config, name), time_limit=5.0, mip_gap=0.1)
            for name in ("phase1", "phase2", "phase3", "exact")
        }
    )


@pytest.mark.parametrize("circuit", ["lna94", "buffer60", "lna60"])
def test_reduced_circuit_settles_to_one_layout(circuit):
    config = _benchmark_config()
    netlist = get_circuit(circuit, "reduced").netlist
    first, second = (PILPLayoutGenerator(config).generate(netlist) for _ in range(2))
    assert first.is_clean
    assert _without_runtime(layout_to_dict(first.layout)) == _without_runtime(
        layout_to_dict(second.layout)
    )


@pytest.mark.parametrize("circuit", ["buffer60", "lna60"])
def test_reduced_phase2_is_its_lp_repair_run_after_run(circuit):
    """Phase 2 keeps its LP repair of the Phase-1 layout, the same in every run."""
    config = _benchmark_config()
    netlist = get_circuit(circuit, "reduced").netlist
    runs = [
        run_phase2(netlist, run_phase1(netlist, config).layout, config) for _ in range(2)
    ]
    assert all(run.solution.repaired for run in runs)
    first, second = (_without_runtime(layout_to_dict(run.layout)) for run in runs)
    assert first == second


def test_tiny_job_settles_to_one_layout_inline_and_forked():
    job = LayoutJob(flow="pilp", netlist=tiny_workload_netlist(), config=PILPConfig.fast())
    inline, forked = (WorkerPool(workers=workers).run([job])[0] for workers in (0, 1))
    assert inline.status == forked.status == "completed"
    assert inline.summary["drc_clean"]
    assert _without_runtime(inline.layout_doc) == _without_runtime(forked.layout_doc)


def test_tiny_exact_flow_settles_to_one_layout_in_process_inline_and_forked():
    """The exact flow runs to its gap, so no clock decides its layout."""
    netlist = tiny_workload_netlist()
    config = PILPConfig.fast()
    in_process = [
        _without_runtime(layout_to_dict(ExactLayoutGenerator(config).generate(netlist).layout))
        for _ in range(2)
    ]
    job = LayoutJob(flow="exact", netlist=netlist, config=config)
    inline, forked = (WorkerPool(workers=workers).run([job])[0] for workers in (0, 1))
    assert inline.status == forked.status == "completed"
    assert inline.summary["drc_clean"]
    assert in_process[0] == in_process[1]
    assert in_process[0] == _without_runtime(inline.layout_doc)
    assert in_process[0] == _without_runtime(forked.layout_doc)
