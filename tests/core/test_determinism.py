"""Hash ⇒ output: the same job settles to the same layout, run after run.

Every phase of these jobs is an LP repair or a solve HiGHS proves optimal,
so no wall-clock limit decides the result.
"""

from dataclasses import replace

from repro.circuits import get_circuit
from repro.core import PILPLayoutGenerator
from repro.core.config import PILPConfig
from repro.layout.export_json import layout_to_dict
from repro.loadgen.workload import tiny_workload_netlist
from repro.runner import LayoutJob, WorkerPool


def _without_runtime(doc):
    doc = dict(doc)
    doc["metadata"] = {k: v for k, v in doc["metadata"].items() if k != "runtime_s"}
    return doc


def test_reduced_lna94_settles_to_one_layout():
    config = PILPConfig.fast()
    config = config.with_updates(
        **{
            name: replace(getattr(config, name), time_limit=5.0, mip_gap=0.1)
            for name in ("phase1", "phase2", "phase3", "exact")
        }
    )
    netlist = get_circuit("lna94", "reduced").netlist
    first, second = (PILPLayoutGenerator(config).generate(netlist) for _ in range(2))
    assert first.is_clean
    assert _without_runtime(layout_to_dict(first.layout)) == _without_runtime(
        layout_to_dict(second.layout)
    )


def test_tiny_job_settles_to_one_layout_inline_and_forked():
    job = LayoutJob(flow="pilp", netlist=tiny_workload_netlist(), config=PILPConfig.fast())
    inline, forked = (WorkerPool(workers=workers).run([job])[0] for workers in (0, 1))
    assert inline.status == forked.status == "completed"
    assert inline.summary["drc_clean"]
    assert _without_runtime(inline.layout_doc) == _without_runtime(forked.layout_doc)
