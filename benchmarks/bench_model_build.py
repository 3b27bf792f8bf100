"""Micro-benchmark: MILP model construction + standard-form compilation.

The solver dominates end-to-end flow time, so the batched model-build fast
path (:mod:`repro.ilp.compile`) is easiest to observe in isolation: this
benchmark builds the Phase-1 and exact models for the two headline circuits
and lowers them to standard form, without ever invoking a solver.  The exact
rows build the model the exact flow solves
(:func:`repro.core.exact.build_exact_model`), bend AND rows included.

Run with ``pytest benchmarks/bench_model_build.py`` (add
``--benchmark-disable`` for a quick perf smoke without the statistical
repetition).
"""

from _bench_utils import bench_config, bench_variant, run_once

from repro.circuits import get_circuit
from repro.core.exact import build_exact_model
from repro.core.model_builder import BuildOptions, RficModelBuilder
from repro.core.phase1 import _phase1_windows
from repro.core.windows import mean_device_extent


def _phase1_model(netlist, config):
    reservation = config.blur_margin_factor * mean_device_extent(netlist)
    device_windows, chain_windows = _phase1_windows(netlist, config)
    options = BuildOptions(
        blurred_devices=True,
        exact_lengths=False,
        allow_overlap=True,
        include_device_blocks=False,
        extra_segment_margin=reservation,
        chain_point_counts={
            net.name: config.chain_points_per_microstrip
            for net in netlist.microstrips
        },
        device_windows=device_windows,
        chain_windows=chain_windows,
    )
    return RficModelBuilder(netlist, config, options).build()


def _build_and_compile(netlist, config, build_model):
    build = build_model(netlist, config)
    form = build.model.to_standard_form()
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
    build, form = run_once(
        benchmark, _build_and_compile, circuit.netlist, config, _phase1_model
    )
    _report("phase1[buffer60]", build, form)
    assert form.num_constraints > 0
    assert form.num_integer_variables > 0


def test_model_build_phase1_lna94(benchmark):
    circuit = get_circuit("lna94", bench_variant())
    config = bench_config()
    build, form = run_once(
        benchmark, _build_and_compile, circuit.netlist, config, _phase1_model
    )
    _report("phase1[lna94]", build, form)
    assert form.num_constraints > 0
    assert form.num_integer_variables > 0


def test_model_build_exact_buffer60(benchmark):
    circuit = get_circuit("buffer60", bench_variant())
    config = bench_config()
    build, form = run_once(
        benchmark, _build_and_compile, circuit.netlist, config, build_exact_model
    )
    _report("exact[buffer60]", build, form)
    assert form.num_constraints > 0


def test_model_build_exact_lna94(benchmark):
    circuit = get_circuit("lna94", bench_variant())
    config = bench_config()
    build, form = run_once(
        benchmark, _build_and_compile, circuit.netlist, config, build_exact_model
    )
    _report("exact[lna94]", build, form)
    assert form.num_constraints > 0


def test_incremental_recompile_is_cheap(benchmark):
    """Appending to a compiled model must not re-lower the whole model."""
    circuit = get_circuit("buffer60", bench_variant())
    config = bench_config()
    build = build_exact_model(circuit.netlist, config)
    model = build.model
    model.to_standard_form()  # prime the cache

    def append_and_recompile():
        x = model.add_continuous("")
        model.add_constraint(x <= 1.0)
        return model.to_standard_form()

    form = run_once(benchmark, append_and_recompile)
    assert form.num_variables == model.num_variables
