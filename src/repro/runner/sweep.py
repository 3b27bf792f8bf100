"""Scenario sweeps: mass-produce layout workloads from parameter grids.

The paper evaluates three fixed circuits; the runner opens the benchmark
suite up to *families* of circuits by driving
:func:`repro.circuits.generator.build_amplifier_circuit` over a grid of

* operating frequencies (changes every microstrip's electrical length),
* stage counts (changes netlist size and connectivity),
* area scale factors (changes congestion — the paper's "second area
  setting" stress test, generalised),
* RNG seeds (deterministic length jitter, giving many distinct instances
  per grid point).

Each grid point becomes one :class:`~repro.runner.jobs.LayoutJob`, so a
sweep plugs directly into the worker pool and the result cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.circuit.netlist import LayoutArea
from repro.circuits.generator import AmplifierSpec, build_amplifier_circuit
from repro.core.config import PILPConfig
from repro.errors import ConfigurationError
from repro.runner.jobs import LayoutJob


def amplifier_spec_for(
    num_stages: int,
    frequency_ghz: float,
    area: LayoutArea,
    extra_branches: int = 1,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> AmplifierSpec:
    """A consistent :class:`AmplifierSpec` for arbitrary sweep parameters.

    The published benchmark circuits pin their device / microstrip counts
    to the paper's numbers; sweep scenarios instead derive feasible counts
    from the stage count: the RF chain needs ``3*stages + 1`` devices and
    ``3*stages`` microstrips, and each extra bias branch adds two of each.
    """
    if num_stages < 1:
        raise ConfigurationError("num_stages must be >= 1")
    if extra_branches < 0:
        raise ConfigurationError("extra_branches must be >= 0")
    chain_devices = 3 * num_stages + 1
    chain_nets = 3 * num_stages
    return AmplifierSpec(
        name=name or scenario_name(num_stages, frequency_ghz, area, seed),
        num_stages=num_stages,
        operating_frequency_ghz=frequency_ghz,
        area=area,
        num_microstrips=chain_nets + 2 * extra_branches,
        num_devices=chain_devices + 2 * extra_branches,
        seed=seed,
    )


def scenario_name(
    num_stages: int,
    frequency_ghz: float,
    area: LayoutArea,
    seed: Optional[int] = None,
) -> str:
    """Canonical scenario label, e.g. ``amp2s_94g_620x430_s7``."""
    name = f"amp{num_stages}s_{frequency_ghz:g}g_{area.width:.0f}x{area.height:.0f}"
    return f"{name}_s{seed}" if seed is not None else name


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid over reconstructed amplifier workloads.

    The default base area allots one 310 µm column per stage at 430 µm
    height (the reduced benchmark circuits' density) before the per-point
    ``area_scales`` factor is applied.
    """

    frequencies_ghz: Sequence[float] = (60.0,)
    stage_counts: Sequence[int] = (2,)
    area_scales: Sequence[float] = (1.0,)
    seeds: Sequence[Optional[int]] = (None,)
    extra_branches: int = 1
    stage_width: float = 310.0
    base_height: float = 430.0

    def __post_init__(self) -> None:
        for attribute in ("frequencies_ghz", "stage_counts", "area_scales", "seeds"):
            if not list(getattr(self, attribute)):
                raise ConfigurationError(f"sweep {attribute} must not be empty")

    def __len__(self) -> int:
        return (
            len(list(self.frequencies_ghz))
            * len(list(self.stage_counts))
            * len(list(self.area_scales))
            * len(list(self.seeds))
        )

    def area_for(self, num_stages: int, scale: float) -> LayoutArea:
        return LayoutArea(
            round(self.stage_width * max(2, num_stages) * scale, 1),
            round(self.base_height * scale, 1),
        )

    def specs(self) -> Iterator[AmplifierSpec]:
        """Yield one amplifier specification per grid point."""
        grid = itertools.product(
            self.stage_counts, self.frequencies_ghz, self.area_scales, self.seeds
        )
        for num_stages, frequency, scale, seed in grid:
            yield amplifier_spec_for(
                num_stages=num_stages,
                frequency_ghz=frequency,
                area=self.area_for(num_stages, scale),
                extra_branches=self.extra_branches,
                seed=seed,
            )


def generate_sweep(
    spec: SweepSpec,
    config: Optional[PILPConfig] = None,
    flow: str = "pilp",
) -> List[LayoutJob]:
    """Materialise a sweep into runnable layout jobs.

    Netlists are built eagerly (generation is milliseconds; solving is
    what the pool parallelises) so a bad grid point fails at submission
    time, not inside a worker.
    """
    config = config or PILPConfig()
    jobs = []
    for amplifier in spec.specs():
        circuit = build_amplifier_circuit(amplifier)
        jobs.append(
            LayoutJob(
                flow=flow,
                netlist=circuit.netlist,
                config=config,
                label=f"{amplifier.name}:{flow}",
            )
        )
    return jobs
