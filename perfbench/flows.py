"""``paper_flows``: the paper's own measurement, in process.

One pass runs ``PILPLayoutGenerator.generate`` on the three reduced
circuits, then the one-shot exact flow on the load generator's tiny
netlist, serially.  The work is fixed: the seed is recorded but the
circuits are the paper's, so every run measures the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

from measure import Tracer, layout_digest, mean, rss_mb_self, timed_subprocess

CIRCUITS = ("lna94", "buffer60", "lna60")
EXACT_NAME = "tiny_exact"

#: Per-phase wall-clock budget (s) and MIP gap of the P-ILP phases, laid
#: over ``PILPConfig.fast()``.  The smallest budget at which the reduced
#: circuits' layouts repeated run to run.
PHASE_TIME_LIMIT_S = 5.0
PHASE_MIP_GAP = 0.1
#: Phase-3 refinement iterations: ``fast()`` stops at two, which leaves
#: reduced buffer60 with a crossing.
REFINEMENT_ITERATIONS = 3

SETUP_REPEATS = 3


def config():
    """``PILPConfig.fast()`` with the phase budgets, gaps and iterations set.

    Each phase's ``PhaseSettings`` changes only ``time_limit`` and
    ``mip_gap``, so new ``PhaseSettings`` defaults reach the workload.  The
    exact flow keeps ``fast().exact``: at the phase budget it stops on the
    clock with a layout that is not DRC-clean.
    """
    from repro.core.config import PILPConfig

    base = PILPConfig.fast()
    overlay = {
        name: replace(getattr(base, name), time_limit=PHASE_TIME_LIMIT_S, mip_gap=PHASE_MIP_GAP)
        for name in ("phase1", "phase2", "phase3")
    }
    return replace(base, max_refinement_iterations=REFINEMENT_ITERATIONS, **overlay)


def config_digest(cfg) -> str:
    """Short fingerprint of a configuration (layouts are compared per config)."""
    from dataclasses import asdict

    canonical = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_inputs():
    """Imports plus netlist build: what a user pays before the first solve."""
    from repro.circuits import get_circuit
    from repro.core import ExactLayoutGenerator, PILPLayoutGenerator  # noqa: F401
    from repro.loadgen.workload import tiny_workload_netlist

    netlists = {name: get_circuit(name, "reduced").netlist for name in CIRCUITS}
    netlists[EXACT_NAME] = tiny_workload_netlist()
    return netlists


def measure_setup(root: Path, env: Dict[str, str]) -> List[float]:
    """Set-up times of fresh interpreters (imports are paid once per process)."""
    code = (
        "import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
        "import flows; flows.build_inputs(); flows.config()\n"
    ).format(src=str(root / "src"), here=str(Path(__file__).resolve().parent))
    return timed_subprocess([sys.executable, "-c", code], env, SETUP_REPEATS)


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (restored by ``uninstall``)."""
    from repro.core import exact, phase1, phase2, phase3, pilp
    from repro.core.model_builder import BuildResult, RficModelBuilder
    from repro.ilp.backends.highs import HighsBackend
    from repro.ilp.model import Model
    from repro.layout.drc import DesignRuleChecker

    def on_solve(solution) -> None:
        if solution.iterations is not None:
            tracer.solve_nodes += int(solution.iterations)
        text = (solution.message or "").lower().replace(" ", "")
        if "timelimit" in text or solution.status.value == "time_limit":
            tracer.solve_time_limited += 1

    tracer.install(HighsBackend, "solve", "ilp.solve", on_result=on_solve)
    tracer.install(Model, "to_standard_form", "ilp.standard_form")
    tracer.install(RficModelBuilder, "build", "core.model_build")
    tracer.install(BuildResult, "extract_layout", "core.extract")
    tracer.install(DesignRuleChecker, "check", "layout.drc")
    for module in (pilp, exact):
        tracer.install(module, "compute_metrics", "layout.metrics")
    tracer.install(phase1, "warm_start_from_seeds", "core.warm_start")
    for module in (phase2, phase3):
        tracer.install(module, "warm_start_from_geometry", "core.warm_start")
    tracer.install(phase1, "seed_placement", "core.seed")
    tracer.install(phase1, "spread_boundary_pads", "core.seed")
    tracer.install(phase2, "relax_seed_overlaps", "core.seed")
    tracer.install(pilp, "run_phase1", "core.phase", phase="phase1")
    tracer.install(pilp, "run_phase2", "core.phase", phase="phase2")
    tracer.install(phase3, "run_phase3_iteration", "core.phase", phase="phase3")
    tracer.install(exact.ExactLayoutGenerator, "generate", "core.phase", phase="exact")


def run_pass(netlists, cfg, tracer) -> List[Dict[str, object]]:
    """One pass over the four flows; one record per flow."""
    from repro.core import ExactLayoutGenerator, PILPLayoutGenerator
    from repro.layout.export_json import layout_to_dict

    records = []
    for name, netlist in netlists.items():
        generator = (
            ExactLayoutGenerator(cfg) if name == EXACT_NAME else PILPLayoutGenerator(cfg)
        )
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("flow"):
                    result = generator.generate(netlist)
            else:
                result = generator.generate(netlist)
        except Exception as exc:  # noqa: BLE001 - a failed flow is a failed item
            records.append({"circuit": name, "ok": False, "error": f"{type(exc).__name__}: {exc}",
                            "wall_s": time.perf_counter() - start})
            continue
        wall = time.perf_counter() - start
        records.append(
            {
                "circuit": name,
                "ok": bool(result.is_clean),
                "error": "" if result.is_clean else f"DRC: {result.drc.summary()}",
                "wall_s": wall,
                "bends": int(result.metrics.total_bend_count),
                "max_length_error_um": float(result.metrics.max_abs_length_error),
                "digest": layout_digest(layout_to_dict(result.layout)),
                "nodes": [[phase.phase, phase.solution.iterations] for phase in result.phases],
                "config": config_digest(cfg),
                "phase3_iterations": sum(
                    1 for phase in result.phases if phase.phase.startswith("phase3")
                ),
            }
        )
    return records


def run(root: Path, env: Dict[str, str], seconds: float, trace: bool, mini: bool) -> Dict[str, object]:
    setup_samples = measure_setup(root, env)
    netlists = build_inputs()
    cfg = config()
    if mini:
        netlists = {EXACT_NAME: netlists[EXACT_NAME]}
    tracer = None
    if trace:
        tracer = Tracer()
        install_tracer(tracer)
    passes: List[List[Dict[str, object]]] = []
    started = time.perf_counter()
    try:
        while not passes or time.perf_counter() - started < seconds:
            passes.append(run_pass(netlists, cfg, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    items = [record for records in passes for record in records]
    pass_walls = [sum(r["wall_s"] for r in records) for records in passes]
    ok = [r for r in items if r["ok"]]
    walls = [r["wall_s"] for r in items]
    result = {
        "attempted": len(items),
        "failed": len(items) - len(ok),
        "errors": [f"{r['circuit']}: {r['error']}" for r in items if not r["ok"]],
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss_mb_self(),
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": max(walls),
            "throughput_per_s": len(items) / sum(pass_walls),
            "bends_per_layout": mean(r["bends"] for r in ok) if ok else 0.0,
        },
        "named": {
            "layout_wall_s": statistics.median(pass_walls),
            "total_bends": mean(
                sum(r["bends"] for r in records if r["ok"] and r["circuit"] in CIRCUITS)
                for records in passes
            ),
            "failed_ratio": (len(items) - len(ok)) / len(items),
        },
        "records": items,
        "provenance": {
            "phase_time_limit_s": PHASE_TIME_LIMIT_S,
            "phase_mip_gap": PHASE_MIP_GAP,
            "exact_time_limit_s": cfg.exact.time_limit,
            "exact_mip_gap": cfg.exact.mip_gap,
            "dispatchers": None,
            "setup_samples_s": setup_samples,
        },
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, items, len(passes), sum(pass_walls))
        result["spans"] = tracer.spans
    return result


def layer_metrics(tracer: Tracer, items, passes: int, wall_s: float) -> Dict[str, float]:
    """Per-pass layer totals: ``<layer>.s`` is the layer's self time."""
    per_pass = 1.0 / passes
    unattributed = tracer.self_s.get("flow", 0.0)
    metrics = {
        f"{name}.s": seconds * per_pass
        for name, seconds in tracer.self_s.items()
        if name != "flow"
    }
    for name in ("ilp.solve", "core.model_build", "layout.drc"):
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0) * per_pass
    for phase in ("phase1", "phase2", "phase3", "exact"):
        metrics[f"ilp.solve.s.{phase}"] = tracer.phase_solve_s.get(phase, 0.0) * per_pass
    solves = tracer.calls.get("ilp.solve", 0)
    metrics.update(
        {
            "ilp.solve.nodes": tracer.solve_nodes * per_pass,
            "ilp.solve.time_limited_ratio": tracer.solve_time_limited / solves if solves else 0.0,
            "core.phase3.iterations": sum(r.get("phase3_iterations", 0) for r in items) * per_pass,
            "layout.max_length_error_um": max(
                (r["max_length_error_um"] for r in items if r["ok"]), default=0.0
            ),
            "trace.overhead_s": len(tracer.spans) * tracer.span_cost_s() * per_pass,
            "trace.unattributed_s": unattributed * per_pass,
            "trace.layer_coverage": (wall_s - unattributed) / wall_s,
        }
    )
    return metrics
