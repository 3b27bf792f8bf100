"""Regeneration of Figure 11: RF simulation of manual vs P-ILP layouts.

For each of the two circuits the paper simulates (the 94 GHz LNA and the
60 GHz buffer) the harness

1. produces a manual-like baseline layout at the paper's manual-design area,
2. produces a P-ILP layout at the (smaller) area the paper's generated
   layout used,
3. runs the RF substrate over a frequency sweep for both layouts (and for
   the "as designed" reference response), producing S11/S21/S22 series,
4. reports the gain at the operating frequency next to the paper's values.

The reproduction criterion is the *shape* of Figure 11: the generated layout
matches or exceeds the manual layout's gain at the operating frequency
(because its lengths are exact and it has fewer lossy bends), while the
return-loss curves remain comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.circuits import get_circuit, pilp_area
from repro.circuits.generator import BenchmarkCircuit
from repro.core.config import PILPConfig
from repro.core.pilp import PILPLayoutGenerator
from repro.core.result import FlowResult
from repro.baselines.manual_like import ManualLikeFlow
from repro.experiments.paper_data import PAPER_FIGURE11_GAIN
from repro.experiments.report import format_text_table
from repro.layout.layout import Layout
from repro.rf.amplifier import AmplifierModel, default_frequency_sweep
from repro.rf.network import SParameters

#: Circuits that appear in Figure 11 of the paper.
FIGURE11_CIRCUITS = ("lna94", "buffer60")


@dataclass
class Figure11Series:
    """S-parameter series of one layout variant of one circuit."""

    label: str
    sparameters: SParameters
    gain_db_at_f0: float
    s11_db_at_f0: float
    s22_db_at_f0: float


@dataclass
class Figure11Result:
    """All series of one circuit plus the headline gain comparison."""

    circuit: str
    operating_frequency_ghz: float
    designed: Figure11Series
    manual: Figure11Series
    pilp: Figure11Series
    manual_flow: FlowResult
    pilp_flow: FlowResult
    paper_manual_gain_db: Optional[float] = None
    paper_pilp_gain_db: Optional[float] = None

    def gain_rows(self) -> List[Dict[str, object]]:
        return [
            {
                "circuit": self.circuit,
                "series": series.label,
                "gain_db": round(series.gain_db_at_f0, 3),
                "s11_db": round(series.s11_db_at_f0, 3),
                "s22_db": round(series.s22_db_at_f0, 3),
            }
            for series in (self.designed, self.manual, self.pilp)
        ]

    def to_text(self) -> str:
        rows = self.gain_rows()
        rows.append(
            {
                "circuit": self.circuit,
                "series": "paper: manual / p-ilp",
                "gain_db": f"{self.paper_manual_gain_db} / {self.paper_pilp_gain_db}",
                "s11_db": "-",
                "s22_db": "-",
            }
        )
        return format_text_table(
            rows,
            title=(
                f"Figure 11 ({self.circuit}) — S-parameters at "
                f"{self.operating_frequency_ghz:g} GHz"
            ),
        )

    def shape_holds(self, tolerance_db: float = 0.05) -> bool:
        """The paper's qualitative claim: P-ILP gain >= manual gain at f0."""
        return self.pilp.gain_db_at_f0 >= self.manual.gain_db_at_f0 - tolerance_db

    def series_dict(self) -> Dict[str, object]:
        """Full frequency series (for JSON export and plotting)."""
        return {
            "circuit": self.circuit,
            "frequencies_ghz": (self.designed.sparameters.frequencies / 1e9).tolist(),
            "designed": self.designed.sparameters.as_dict(),
            "manual": self.manual.sparameters.as_dict(),
            "pilp": self.pilp.sparameters.as_dict(),
        }


def _series(
    label: str,
    model: AmplifierModel,
    frequencies: np.ndarray,
    f0_hz: float,
    layout: Optional[Layout],
) -> Figure11Series:
    sparameters = model.simulate(frequencies, layout)
    return Figure11Series(
        label=label,
        sparameters=sparameters,
        gain_db_at_f0=sparameters.gain_db(f0_hz),
        s11_db_at_f0=sparameters.input_return_loss_db(f0_hz),
        s22_db_at_f0=sparameters.output_return_loss_db(f0_hz),
    )


def run_figure11_circuit(
    circuit_name: str,
    variant: Optional[str] = None,
    config: Optional[PILPConfig] = None,
    frequency_points: int = 121,
    runner: Optional["BatchRunner"] = None,
) -> Figure11Result:
    """Regenerate the Figure 11 panel of one circuit.

    With ``runner`` set, the two layout runs (manual-like and P-ILP) go
    through the batch runner — concurrent, and cached across invocations;
    the (cheap) RF simulation always runs inline.  A
    :class:`~repro.service.client.RemoteRunner` works the same way
    (``rfic-layout figure11 --service URL``): the solves happen in the
    daemon, the layouts come back from its cache.
    """
    if circuit_name not in FIGURE11_CIRCUITS:
        raise ExperimentError(
            f"the paper only simulates {FIGURE11_CIRCUITS}; got {circuit_name!r}"
        )
    config = config or PILPConfig()

    manual_circuit: BenchmarkCircuit = get_circuit(circuit_name, variant)
    pilp_circuit: BenchmarkCircuit = get_circuit(
        circuit_name, variant, area=pilp_area(circuit_name, variant)
    )

    if runner is not None:
        manual_flow, pilp_flow = _layout_flows_via_runner(
            circuit_name, manual_circuit, pilp_circuit, config, runner
        )
    else:
        manual_flow = ManualLikeFlow().generate(manual_circuit.netlist)
        pilp_flow = PILPLayoutGenerator(config).generate(pilp_circuit.netlist)

    f0_ghz = manual_circuit.netlist.operating_frequency_ghz
    f0_hz = f0_ghz * 1.0e9
    frequencies = default_frequency_sweep(f0_ghz, points=frequency_points)

    manual_model = AmplifierModel(manual_circuit.netlist, manual_circuit.chain)
    pilp_model = AmplifierModel(pilp_circuit.netlist, pilp_circuit.chain)

    designed = _series("designed", manual_model, frequencies, f0_hz, None)
    manual = _series("manual-like", manual_model, frequencies, f0_hz, manual_flow.layout)
    pilp = _series("p-ilp", pilp_model, frequencies, f0_hz, pilp_flow.layout)

    paper = PAPER_FIGURE11_GAIN.get(circuit_name, {})
    return Figure11Result(
        circuit=circuit_name,
        operating_frequency_ghz=f0_ghz,
        designed=designed,
        manual=manual,
        pilp=pilp,
        manual_flow=manual_flow,
        pilp_flow=pilp_flow,
        paper_manual_gain_db=paper.get("manual"),
        paper_pilp_gain_db=paper.get("pilp"),
    )


def _layout_flows_via_runner(
    circuit_name: str,
    manual_circuit: BenchmarkCircuit,
    pilp_circuit: BenchmarkCircuit,
    config: PILPConfig,
    runner: "BatchRunner",
) -> tuple:
    """Run the manual-like and P-ILP layouts as one runner batch."""
    from repro.runner.jobs import LayoutJob

    jobs = [
        LayoutJob(
            flow="manual",
            netlist=manual_circuit.netlist,
            label=f"{circuit_name}:manual",
        ),
        LayoutJob(
            flow="pilp",
            netlist=pilp_circuit.netlist,
            config=config,
            label=f"{circuit_name}:pilp",
        ),
    ]
    outcomes = runner.run(jobs)
    for job, outcome in zip(jobs, outcomes):
        if not outcome.ok:
            raise ExperimentError(
                f"figure11 job {job.describe()!r} {outcome.status}: {outcome.error}"
            )
    return outcomes[0].flow_result(), outcomes[1].flow_result()


def run_figure11(
    circuits: Optional[Sequence[str]] = None,
    variant: Optional[str] = None,
    config: Optional[PILPConfig] = None,
    runner: Optional["BatchRunner"] = None,
) -> List[Figure11Result]:
    """Regenerate both Figure 11 panels."""
    results = []
    for circuit_name in circuits or FIGURE11_CIRCUITS:
        results.append(run_figure11_circuit(circuit_name, variant, config, runner=runner))
    return results
