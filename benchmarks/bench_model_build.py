"""Micro-benchmark: MILP model construction + standard-form compilation.

The solver dominates end-to-end flow time, so the batched model-build fast
path (:mod:`repro.ilp.compile`) is easiest to observe in isolation: this
benchmark builds the Phase-1 and exact models for the two headline circuits
and lowers them to standard form, without ever invoking a solver.  The rows
build the models the flows solve
(:func:`repro.core.phase1.build_phase1_model` and
:func:`repro.core.exact.build_exact_model`, bend AND rows included).  Each
row is the median of ``BUILDS`` builds.

Run with ``pytest benchmarks/bench_model_build.py`` (add
``--benchmark-disable`` for a quick perf smoke without the statistical
repetition).
"""

import statistics
import time

import _snapshot
from _bench_utils import bench_config, bench_variant

from repro.circuits import get_circuit
from repro.core.exact import build_exact_model
from repro.core.phase1 import build_phase1_model

#: Builds per row.  One build spreads about 1.4-1.7x run to run on
#: unchanged code; the row records the median of this many.
BUILDS = 5


def _median_build(benchmark, netlist, config, build_model):
    """Build and compile ``BUILDS`` times; record the median as the row.

    The repetition lives here, not in pytest-benchmark, so the recorded
    median is the same under ``--benchmark-disable``.
    """

    def build_and_compile():
        seconds = []
        for _ in range(BUILDS):
            start = time.perf_counter()
            build = build_model(netlist, config)
            form = build.model.to_standard_form()
            seconds.append(time.perf_counter() - start)
        return build, form, statistics.median(seconds)

    build, form, median = benchmark.pedantic(build_and_compile, rounds=1, iterations=1)
    _snapshot.record_timing(median)
    return build, form


def _report(name, build, form):
    stats = build.model.statistics()
    nnz = form.a_ub.nnz + form.a_eq.nnz
    print(
        f"\n{name}: {stats['variables']} vars, {stats['constraints']} rows, "
        f"{nnz} nonzeros, {build.num_spacing_pairs} spacing pairs"
    )


def test_model_build_phase1_buffer60(benchmark):
    circuit = get_circuit("buffer60", bench_variant())
    config = bench_config()
    build, form = _median_build(benchmark, circuit.netlist, config, build_phase1_model)
    _report("phase1[buffer60]", build, form)
    assert form.num_constraints > 0
    assert form.num_integer_variables > 0


def test_model_build_phase1_lna94(benchmark):
    circuit = get_circuit("lna94", bench_variant())
    config = bench_config()
    build, form = _median_build(benchmark, circuit.netlist, config, build_phase1_model)
    _report("phase1[lna94]", build, form)
    assert form.num_constraints > 0
    assert form.num_integer_variables > 0


def test_model_build_exact_buffer60(benchmark):
    circuit = get_circuit("buffer60", bench_variant())
    config = bench_config()
    build, form = _median_build(benchmark, circuit.netlist, config, build_exact_model)
    _report("exact[buffer60]", build, form)
    assert form.num_constraints > 0


def test_model_build_exact_lna94(benchmark):
    circuit = get_circuit("lna94", bench_variant())
    config = bench_config()
    build, form = _median_build(benchmark, circuit.netlist, config, build_exact_model)
    _report("exact[lna94]", build, form)
    assert form.num_constraints > 0

