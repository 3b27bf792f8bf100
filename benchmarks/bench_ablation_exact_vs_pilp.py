"""Ablation: exact ILP (Section 4) vs progressive P-ILP (Section 5).

The paper motivates the progressive flow by the unacceptable runtime of the
exact model.  The exact flow solves the full model to its gap; it first
proves a bend floor on relaxations with few chain points and, when a bend
bound certifies it, lifts a relaxation's optimum instead of searching the
full model (see :mod:`repro.core.exact`).  On a circuit small enough for both to finish, the ablation
checks that (i) both produce DRC-clean exact-length layouts and (ii) the
progressive flow does not lose layout quality (bend counts) relative to the
exact optimum.
"""

from _bench_utils import bench_config, run_once

from repro.circuit import (
    LayoutArea,
    MicrostripNet,
    Netlist,
    Terminal,
    make_rf_pad,
    make_transistor,
)
from repro.core import ExactLayoutGenerator, PILPLayoutGenerator


def _tiny_netlist() -> Netlist:
    devices = [make_rf_pad("P_IN"), make_rf_pad("P_OUT"), make_transistor("M1")]
    nets = [
        MicrostripNet("ms_in", Terminal("P_IN", "SIG"), Terminal("M1", "G"), 250.0),
        MicrostripNet("ms_out", Terminal("M1", "D"), Terminal("P_OUT", "SIG"), 300.0),
    ]
    return Netlist("tiny", devices, nets, LayoutArea(400.0, 300.0), operating_frequency_ghz=94.0)


def test_ablation_exact_flow(benchmark):
    netlist = _tiny_netlist()
    result = run_once(benchmark, ExactLayoutGenerator(bench_config()).generate, netlist)
    print()
    print("exact  :", result.summary())
    assert result.drc.is_clean
    assert result.metrics.max_abs_length_error <= 0.5
    # The bend floor certifies the optimum on a relaxation; a lost
    # certificate would leave the full model to search.
    assert result.layout.metadata["certified_by_chain_points"] is not None
    assert result.metrics.total_bend_count == 1


def test_ablation_progressive_flow(benchmark):
    netlist = _tiny_netlist()
    result = run_once(benchmark, PILPLayoutGenerator(bench_config()).generate, netlist)
    print()
    print("p-ilp  :", result.summary())
    assert result.layout.is_complete
    # The exact optimum for this instance needs at most one bend per net.
    assert result.metrics.total_bend_count <= 4
