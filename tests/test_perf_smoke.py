"""Functional perf-smoke checks: the fast paths must actually be active.

These are not timing assertions (timings are flaky under CI load) but
structural ones: caches return cached objects, warm starts cover the model,
and the compiled path is what the hot builders emit.  Run them alone with
``pytest -m perf_smoke``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PILPConfig
from repro.core.model_builder import BuildOptions, RficModelBuilder
from repro.core.warm_start import warm_start_from_seeds
from repro.geometry.point import Point
from repro.rf.microstrip import MicrostripLine

pytestmark = pytest.mark.perf_smoke


def _build(netlist):
    options = BuildOptions(
        blurred_devices=True,
        exact_lengths=False,
    )
    return RficModelBuilder(netlist, PILPConfig.fast(), options).build()


def _count_highs_solves(monkeypatch):
    """Record the model name and keyword arguments of every HiGHS solve."""
    from repro.ilp.backends.highs import HighsBackend

    solves = []
    original = HighsBackend.solve

    def counting(self, model, *args, **kwargs):
        solves.append({"model": model.name, **kwargs})
        solution = original(self, model, *args, **kwargs)
        solves[-1]["status"] = solution.status
        return solution

    monkeypatch.setattr(HighsBackend, "solve", counting)
    return solves


def test_standard_form_cache_returns_same_object(tiny_netlist):
    model = _build(tiny_netlist).model
    assert model.to_standard_form() is model.to_standard_form()


def test_hot_builders_emit_batched_rows(tiny_netlist, monkeypatch):
    from repro.ilp.model import Model

    term_rows = []
    add_constraint = Model.add_constraint

    def recording(self, *args, **kwargs):
        constraint = add_constraint(self, *args, **kwargs)
        term_rows.append(constraint.name)
        return constraint

    monkeypatch.setattr(Model, "add_constraint", recording)
    model = _build(tiny_netlist).model
    # The spacing/segment/box/bend/no-reversal families must flow through
    # batches; no segment row may take the per-term expression path.
    assert len(term_rows) < 0.2 * model.num_constraints
    assert [name for name in term_rows if name.startswith("net[") and ".seg[" in name] == []


def test_warm_start_covers_most_of_the_model(tiny_netlist):
    build = _build(tiny_netlist)
    seeds = {
        "P_IN": Point(10.0, 150.0),
        "P_OUT": Point(390.0, 150.0),
        "M1": Point(200.0, 100.0),
    }
    values = warm_start_from_seeds(build, seeds)
    coverage = len(values) / build.model.num_variables
    assert coverage > 0.9, f"warm start covers only {coverage:.0%} of variables"


def test_highs_binding_exposes_the_progressive_surface():
    """Pin the private ``scipy.optimize._highspy`` names the backend uses.

    Every HiGHS solve runs on this binding, and progressive solves stop
    themselves through these callbacks; a SciPy release that renames one
    must fail here rather than inside a flow.
    """
    from repro.ilp.backends.highs import _highspy_core

    core = _highspy_core()
    assert core is not None
    kinds = core.cb.HighsCallbackType
    assert hasattr(kinds, "kCallbackMipInterrupt")
    assert hasattr(kinds, "kCallbackMipImprovingSolution")
    highs = getattr(core, "_Highs", None) or core.Highs
    assert hasattr(highs, "setCallback") and hasattr(highs, "startCallback")
    assert hasattr(core.cb.HighsCallbackInput, "user_interrupt")
    assert hasattr(core.cb.HighsCallbackOutput, "running_time")
    assert hasattr(core.cb.HighsCallbackOutput, "objective_function_value")
    assert hasattr(core.HighsModelStatus, "kInterrupt")


def test_every_solve_takes_the_one_highs_path(tiny_netlist, monkeypatch):
    """No solve reaches SciPy's public ``milp`` or ``linprog`` wrappers."""
    from scipy import optimize

    from repro.core.phase1 import build_phase1_model, phase1_seeds
    from repro.ilp import Model, VarType
    from repro.ilp.backends.highs import HighsBackend
    from repro.ilp.solution import SolveStatus

    def refuse(*args, **kwargs):
        raise AssertionError("solve left the bundled HiGHS binding")

    monkeypatch.setattr(optimize, "milp", refuse)
    monkeypatch.setattr(optimize, "linprog", refuse)

    mip = Model()
    n = mip.add_var("n", lb=0, ub=10, vartype=VarType.INTEGER)
    mip.add_constraint(2 * n <= 7)
    mip.set_objective(n, sense="max")
    assert mip.solve().status is SolveStatus.OPTIMAL

    lp = Model()
    x = lp.add_continuous("x", ub=4)
    lp.set_objective(x, sense="max")
    assert lp.solve().objective == pytest.approx(4.0)

    config = PILPConfig.fast()
    seeds = phase1_seeds(tiny_netlist, config)
    build = build_phase1_model(tiny_netlist, config, seeds)
    repaired = HighsBackend().repair(build.model, warm_start_from_seeds(build, seeds))
    assert repaired is not None and repaired.status is SolveStatus.FEASIBLE


def test_highs_binding_is_loaded_before_workers_fork():
    """The runner forks a worker per job; importing the binding there (all of
    ``scipy.optimize``) would be paid again by every job."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "import sys, repro.runner; print('scipy.optimize._highspy._core' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "True"


def test_phase1_repairs_its_seed_without_a_mip_search(tiny_netlist, monkeypatch):
    """Phase 1 is one pinned LP; it runs no MIP search."""
    from repro.core.phase1 import run_phase1
    from repro.ilp.solution import SolveStatus

    solves = _count_highs_solves(monkeypatch)
    result = run_phase1(tiny_netlist, PILPConfig.fast())
    assert solves == []
    assert result.solution.status is SolveStatus.FEASIBLE


def test_a_failed_repair_runs_one_warm_started_search_per_phase(tiny_netlist, monkeypatch):
    """A pinned LP with no optimum is what makes Phase 1 or Phase 2 search."""
    from repro.core.phase1 import run_phase1
    from repro.core.phase2 import run_phase2
    from repro.ilp.backends.highs import HighsBackend

    monkeypatch.setattr(HighsBackend, "repair", lambda self, model, warm_start: None)
    solves = _count_highs_solves(monkeypatch)
    config = PILPConfig.fast()
    phase1 = run_phase1(tiny_netlist, config)
    phase2 = run_phase2(tiny_netlist, phase1.layout, config)
    assert [solve["model"].split("[")[0] for solve in solves] == ["phase1", "phase2"]
    assert all(solve["warm_start"] is not None for solve in solves)
    assert not phase1.solution.repaired and not phase2.solution.repaired


def test_seeded_phase2_keeps_its_drc_clean_repair(tiny_netlist, monkeypatch):
    """A seeded Phase 2 is one pinned LP; it runs no MIP search."""
    from repro.core.phase1 import run_phase1
    from repro.core.phase2 import run_phase2
    from repro.ilp.solution import SolveStatus
    from repro.layout.drc import run_drc

    config = PILPConfig.fast()
    phase1 = run_phase1(tiny_netlist, config)
    solves = _count_highs_solves(monkeypatch)
    result = run_phase2(tiny_netlist, phase1.layout, config)
    assert len(solves) == 0
    assert result.solution.status is SolveStatus.FEASIBLE and result.solution.repaired
    assert run_drc(result.layout).is_clean


def _phase2_searches(monkeypatch, answer=None):
    """Record the keyword arguments of every HiGHS solve of a Phase-2 model.

    ``answer(backend, model, warm_start)`` replaces those solves when given.
    """
    from repro.ilp.backends.highs import HighsBackend

    searches = []
    original = HighsBackend.solve

    def counting(self, model, *args, **kwargs):
        if not model.name.startswith("phase2["):
            return original(self, model, *args, **kwargs)
        searches.append(kwargs)
        if answer is not None:
            return answer(self, model, kwargs.get("warm_start"))
        return original(self, model, *args, **kwargs)

    monkeypatch.setattr(HighsBackend, "solve", counting)
    return searches


def _phase3_rounds(monkeypatch):
    """Record the Phase-2 layout every Phase-3 round of the flow starts from."""
    from repro.core import pilp

    rounds = []
    original = pilp.run_phase3

    def counting(netlist, phase2_layout, *args, **kwargs):
        rounds.append(phase2_layout)
        return original(netlist, phase2_layout, *args, **kwargs)

    monkeypatch.setattr(pilp, "run_phase3", counting)
    return rounds


def _crossing(layout=None):
    from repro.layout.drc import DRCReport, DRCViolation, ViolationKind

    return DRCReport([DRCViolation(ViolationKind.CROSSING, "ms_in", "ms_out")])


def test_a_dirty_repair_whose_flow_ends_clean_runs_no_phase2_search(
    tiny_netlist, monkeypatch
):
    """Every DRC of the Phase-2 layout reports a crossing; Phase 3 still ends clean."""
    from repro.core import PILPLayoutGenerator
    from repro.layout.drc import DesignRuleChecker

    check = DesignRuleChecker.check

    def dirty_phase2(self, layout, *args, **kwargs):
        report = check(self, layout, *args, **kwargs)
        if layout.metadata.get("phase") == "phase2":
            report.violations.extend(_crossing().violations)
        return report

    monkeypatch.setattr(DesignRuleChecker, "check", dirty_phase2)
    searches = _phase2_searches(monkeypatch)
    result = PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
    assert result.is_clean
    assert searches == []


def test_a_dirty_final_drc_runs_one_warm_started_phase2_search(tiny_netlist, monkeypatch):
    """The fallback searches once from Phase 1; its new geometry gets a second round."""
    from repro.core import PILPLayoutGenerator, pilp

    monkeypatch.setattr(pilp, "run_drc", _crossing)
    searches = _phase2_searches(monkeypatch)
    rounds = _phase3_rounds(monkeypatch)
    result = PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
    assert len(searches) == 1 and searches[0]["warm_start"]
    assert len(rounds) == 2 and rounds[1] is not rounds[0]
    assert [phase.phase for phase in result.phases[:2]] == ["phase1", "phase2"]
    assert not result.phases[1].solution.repaired


def test_a_search_that_returns_the_repair_runs_no_second_phase3_round(
    tiny_netlist, monkeypatch
):
    from repro.core import PILPLayoutGenerator, pilp

    monkeypatch.setattr(pilp, "run_drc", _crossing)
    searches = _phase2_searches(
        monkeypatch, answer=lambda backend, model, warm: backend.repair(model, warm)
    )
    rounds = _phase3_rounds(monkeypatch)
    PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
    assert len(searches) == 1
    assert len(rounds) == 1


def test_every_mip_search_of_the_flow_is_warm_started(tiny_netlist, monkeypatch):
    """No HiGHS MIP solve of the flow starts cold, the fallback round included."""
    from repro.core import PILPLayoutGenerator, pilp

    monkeypatch.setattr(pilp, "run_drc", _crossing)
    solves = _count_highs_solves(monkeypatch)
    PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
    assert any(solve["model"].startswith("phase2[") for solve in solves)
    assert all(solve["warm_start"] is not None for solve in solves)


@pytest.mark.parametrize("circuit", ["buffer60", "lna60"])
def test_reduced_circuits_start_planar_and_refine_to_optimality(circuit, monkeypatch):
    """A crossing-free seed leaves Phase 3 nothing to untangle.

    All horizontal-first, each seed has two crossing net pairs; the chosen
    orientations have none.  At the benchmark budget the flow then runs no
    Phase-2 search and every Phase-3 search ends optimal, so no stall
    window or time limit decides the layout.
    """
    from repro.circuits import get_circuit
    from repro.core import PILPLayoutGenerator
    from repro.core.phase1 import phase1_seeds
    from repro.core.seed import choose_l_orientations, seed_crossings
    from repro.ilp.solution import SolveStatus
    from tests.core.test_determinism import _benchmark_config

    config = _benchmark_config()
    netlist = get_circuit(circuit, "reduced").netlist
    seeds = phase1_seeds(netlist, config)
    assert seed_crossings(netlist, seeds) == 2
    assert seed_crossings(netlist, seeds, choose_l_orientations(netlist, seeds)) == 0

    searches = _phase2_searches(monkeypatch)
    result = PILPLayoutGenerator(config).generate(netlist)
    assert result.is_clean
    assert searches == []
    refinements = [phase for phase in result.phases if phase.phase.startswith("phase3")]
    assert refinements
    assert all(phase.solution.status is SolveStatus.OPTIMAL for phase in refinements)


def _bend_and_rows(model):
    return [c.name for c in model.constraints if c.name.endswith((".hv_and", ".vh_and"))]


def _bend_floor_rows(model):
    return [c.name for c in model.constraints if c.name.startswith("obj.bend_floor")]


def _record_builds(monkeypatch):
    builds = []
    build = RficModelBuilder.build

    def recording(self):
        builds.append(build(self))
        return builds[-1]

    monkeypatch.setattr(RficModelBuilder, "build", recording)
    return builds


def test_the_exact_flow_certifies_its_optimum_on_one_bent_net(tiny_netlist, monkeypatch):
    """R_0 is infeasible and the level that bends ms_in alone lifts: two solves, one repair."""
    from repro.core import ExactLayoutGenerator
    from repro.ilp.backends.highs import HighsBackend
    from repro.ilp.solution import SolveStatus

    solves = _count_highs_solves(monkeypatch)
    repairs = []
    repair = HighsBackend.repair

    def counting_repair(self, model, warm_start):
        repairs.append(model.name)
        return repair(self, model, warm_start)

    monkeypatch.setattr(HighsBackend, "repair", counting_repair)
    builds = _record_builds(monkeypatch)
    result = ExactLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)

    assert [(solve["model"], solve["status"]) for solve in solves] == [
        ("exact[tiny][2 chain points]", SolveStatus.INFEASIBLE),
        ("exact[tiny][ms_in: 3 chain points]", SolveStatus.OPTIMAL),
    ]
    assert repairs == ["exact[tiny]"]
    assert result.phases[0].solution.status is SolveStatus.OPTIMAL
    assert result.layout.metadata["certified_by_chain_points"] == {"ms_in": 3, "ms_out": 2}
    assert result.layout.metadata["bend_floor"] == 1
    floors = {build.model.name: _bend_floor_rows(build.model) for build in builds}
    assert floors == {
        "exact[tiny]": ["obj.bend_floor", "obj.bend_floor_total"],
        "exact[tiny][2 chain points]": [],
        "exact[tiny][ms_in: 3 chain points]": ["obj.bend_floor", "obj.bend_floor_total"],
    }


def test_only_the_exact_model_carries_the_bend_and_rows(tiny_netlist, monkeypatch):
    """Two AND rows per interior chain point in the exact model, none in a P-ILP phase.

    No P-ILP model carries a bend floor either.
    """
    from repro.core import PILPLayoutGenerator, pilp
    from repro.core.exact import build_exact_model

    exact = build_exact_model(tiny_netlist, PILPConfig.fast())
    interior_points = sum(len(net.segments) - 1 for net in exact.nets.values())
    assert len(_bend_and_rows(exact.model)) == 2 * interior_points > 0

    builds = _record_builds(monkeypatch)
    # A dirty final DRC makes the flow also build its fallback Phase-2 search
    # model and a second round of Phase-3 models.
    monkeypatch.setattr(pilp, "run_drc", _crossing)
    PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
    phases = {result.model.name.split("[")[0] for result in builds}
    assert phases == {"phase1", "phase2", "phase3"}
    assert all(_bend_and_rows(result.model) == [] for result in builds)
    assert all(_bend_floor_rows(result.model) == [] for result in builds)


def test_every_model_of_the_flows_is_assembled_once(tiny_netlist, monkeypatch):
    """Repair and search of a model share one standard form.

    Each Phase-1 and Phase-2 repair assembles its model's form and then
    reports no optimum, so the phase also searches the model it repaired.
    Any change to a model drops its form, so this also shows that no flow
    changes a model after it first exports it.
    """
    from repro.core import ExactLayoutGenerator, PILPLayoutGenerator, pilp
    from repro.ilp.backends.highs import HighsBackend
    from repro.ilp.model import Model

    assembled = []  # holding the models keeps their ids distinct
    assemble = Model._assemble_form

    def recording(self):
        assembled.append(self)
        return assemble(self)

    repaired = []
    repair = HighsBackend.repair

    def failing_phase_repair(self, model, warm_start):
        repaired.append(model)
        solution = repair(self, model, warm_start)
        return None if model.name.startswith(("phase1", "phase2")) else solution

    monkeypatch.setattr(Model, "_assemble_form", recording)
    monkeypatch.setattr(HighsBackend, "repair", failing_phase_repair)
    solves = _count_highs_solves(monkeypatch)
    builds = _record_builds(monkeypatch)
    # A dirty final DRC adds the fallback round: a Phase-2 search and a
    # second round of Phase-3 models.
    monkeypatch.setattr(pilp, "run_drc", _crossing)
    PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
    ExactLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)

    names = {build.model.name.split("[")[0] for build in builds}
    assert names == {"phase1", "phase2", "phase3", "exact"}
    searched = {solve["model"] for solve in solves}
    assert {"phase1", "phase2"} <= {m.name.split("[")[0] for m in repaired if m.name in searched}
    assert len({id(model) for model in assembled}) == len(assembled)
    assert {id(model) for model in assembled} == {id(build.model) for build in builds}


def test_the_pilp_flow_checks_each_layout_once(tiny_netlist, monkeypatch):
    """Phase 3 ranks a layout and plans from it with one design-rule report."""
    from repro.core import PILPLayoutGenerator
    from repro.layout.drc import DesignRuleChecker

    checked = []  # holding the layouts keeps their ids distinct
    check = DesignRuleChecker.check

    def recording(self, layout, *args, **kwargs):
        checked.append(layout)
        return check(self, layout, *args, **kwargs)

    monkeypatch.setattr(DesignRuleChecker, "check", recording)
    PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
    assert checked
    assert len({id(layout) for layout in checked}) == len(checked)


def test_perfbench_tracer_sees_every_layer(tiny_netlist, monkeypatch):
    """perfbench's tracer patches names in ``repro``; each must still be called.

    Tier-1 does not collect ``perfbench/``, so a renamed patch point, or one
    called other than through its module attribute, would otherwise show up
    only as a silent 0 in a per-layer metric.
    """
    from pathlib import Path

    from repro.core import ExactLayoutGenerator, PILPLayoutGenerator

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import flows
    import measure

    tracer = measure.Tracer()
    flows.install_tracer(tracer)
    try:
        PILPLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
        ExactLayoutGenerator(PILPConfig.fast()).generate(tiny_netlist)
    finally:
        tracer.uninstall()
    every_phase = {"phase1", "phase2", "phase3", "exact"}
    # Each layer with the phases whose spans must enclose a call of it.
    expected = {
        "core.phase": every_phase,
        "core.warm_start": {"phase1", "phase2", "phase3"},
        "core.seed": {"phase1", "phase2"},
        "core.model_build": every_phase,
        "core.extract": every_phase,
        "ilp.solve": {"phase3", "exact"},
        "layout.metrics": set(),
        "layout.drc": set(),
    }
    seen = {layer: set() for layer in expected}
    for span in tracer.spans:
        if span["name"] in seen:
            seen[span["name"]].add(span["phase"])
    for layer, phases in expected.items():
        assert seen[layer] and phases <= seen[layer], (layer, seen[layer])


def test_solve_processes_run_blas_on_the_calling_thread():
    """Importing the CLI defaults OpenBLAS to one thread unless one is set."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import os, repro.cli; tasks = '/proc/self/task'; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], "
        "len(os.listdir(tasks)) if os.path.isdir(tasks) else '-')"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def probe(**extra):
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**env, "PYTHONPATH": src, **extra},
        ).stdout.split()

    setting, threads = probe()
    assert setting == "1"
    if threads != "-":
        assert threads == "1"
    assert probe(OPENBLAS_NUM_THREADS="2")[0] == "2"


def test_rf_propagation_is_memoised():
    line = MicrostripLine(width=10.0, height=3.0)
    freq = np.linspace(50e9, 70e9, 41)
    first = line.propagation_constant(freq)
    second = line.propagation_constant(freq)
    assert first is second
    assert not first.flags.writeable
    # A different grid misses the cache but produces a fresh entry.
    other = line.propagation_constant(freq[:-1])
    assert other is not first


def test_runner_cache_short_circuits_execution(tmp_path):
    """A cache hit must settle a job without invoking its flow."""
    from repro.runner import BatchRunner, LayoutJob
    from tests.conftest import build_tiny_netlist

    job = LayoutJob(flow="manual", netlist=build_tiny_netlist())
    runner = BatchRunner(cache_dir=tmp_path, workers=0)
    assert runner.run_one(job).status == "completed"

    calls = {"count": 0}
    original_run = LayoutJob.run
    try:
        def counting_run(self, checkpoint=None):
            calls["count"] += 1
            return original_run(self, checkpoint=checkpoint)

        LayoutJob.run = counting_run
        warm = BatchRunner(cache_dir=tmp_path, workers=0)
        assert warm.run_one(LayoutJob(flow="manual", netlist=build_tiny_netlist())).status == "cached"
    finally:
        LayoutJob.run = original_run
    assert calls["count"] == 0


def test_pool_settles_a_job_without_sleeping(monkeypatch):
    """The pool waits on its workers' pipes and sentinels, never on a timer."""
    import time
    import types

    from repro.runner import WorkerPool, pool
    from tests.runner.test_pool import quick

    def no_sleep(seconds):
        raise AssertionError(f"pool slept {seconds} s")

    # Only the pool's view of ``time`` changes; other threads keep sleeping.
    pool_time = types.ModuleType("time")
    pool_time.__dict__.update(vars(time))
    pool_time.sleep = no_sleep
    monkeypatch.setattr(pool, "time", pool_time)
    outcome = WorkerPool(workers=1).run([quick("nosleep")])[0]
    assert outcome.status == "completed"


def test_job_hash_is_cached_per_instance(tiny_netlist):
    """Hashing canonicalises the whole netlist; it must only happen once."""
    from repro.runner import LayoutJob

    job = LayoutJob(flow="pilp", netlist=tiny_netlist)
    assert job.content_hash is job.content_hash


def test_observability_is_off_by_default():
    """Tracing/logging must cost nothing unless explicitly enabled.

    Structural pin of the disabled-overhead acceptance: the injectable
    clock falls through to the real clocks, and the structured logger's
    ``log()`` is a single attribute check.
    """
    from repro.obs.logging import LOG
    from repro.obs.trace import CLOCK

    assert not CLOCK.installed
    assert not LOG.enabled


def test_hot_solver_modules_do_not_import_obs():
    """The solve hot path must not grow observability imports.

    Profiling hooks live in the phase drivers (which already do I/O and
    subprocess work); the per-constraint hot builders and the ILP model
    stay observability-free so ``bench_runner_batch`` is unaffected with
    tracing off.
    """
    import inspect

    import repro.core.model_builder
    import repro.ilp.model

    for module in (repro.core.model_builder, repro.ilp.model):
        assert "repro.obs" not in inspect.getsource(module)


def test_cache_entries_carry_a_solve_profile(tmp_path):
    """Every new cache entry stores its cost breakdown (profile)."""
    from repro.runner import BatchRunner, LayoutJob
    from repro.runner.cache import ResultCache
    from tests.conftest import build_tiny_netlist

    job = LayoutJob(flow="manual", netlist=build_tiny_netlist())
    runner = BatchRunner(cache_dir=tmp_path, workers=0)
    outcome = runner.run_one(job)
    assert outcome.status == "completed"
    entry = ResultCache(tmp_path).peek(job)
    assert entry is not None
    assert entry.profile is not None
    assert entry.profile["total_s"] >= 0
