"""Configuration of the exact ILP model and the progressive (P-ILP) flow.

The paper leaves the objective weights (α, β in (21); α, β, γ, ζ, η in (26)),
the initial chain-point count, the confinement window τ_d and the iteration
budget of Phase 3 unspecified.  The defaults below were chosen so that, on
the reconstructed benchmark circuits, the flow behaves the way the paper
describes: bends are the primary objective, length mismatch is driven to zero
by the refinement iterations, and residual overlap from Phase 1 is removed in
Phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the optimisation objective (equations (21) and (26)).

    Attributes
    ----------
    alpha:
        Weight of the maximum bend count over all microstrips.
    beta:
        Weight of the total bend count.
    gamma:
        Weight of the maximum unmatched length ``l_u,max`` (soft phases only).
    zeta:
        Weight of the total unmatched length.
    eta:
        Weight of the total residual overlap extent (soft phases only).
        Residual overlap is what ultimately makes a layout illegal, so it is
        weighted well above the length terms: the remaining length error is
        eliminated by the hard exact-length iteration of Phase 3 once the
        geometry is clean.
    """

    alpha: float = 20.0
    beta: float = 4.0
    gamma: float = 12.0
    zeta: float = 2.0
    eta: float = 12.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "zeta", "eta"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"objective weight {name} must be non-negative")


@dataclass(frozen=True)
class PhaseSettings:
    """Per-phase solver settings.

    Every P-ILP phase runs one way: warm-started from the previous phase's
    geometry (the seed placement for Phase 1), repair first where the phase
    repairs, and as a progressive HiGHS run that stops itself once a quarter
    of ``time_limit`` passes without the incumbent improving the objective
    by at least 1%.  The soft phase models have a structurally weak LP
    bound (zero), so the gap criterion rarely fires and the stall window is
    what keeps a phase from burning its whole budget after convergence.

    Attributes
    ----------
    time_limit:
        Wall-clock budget of one solve in seconds (``None`` = unlimited).
    mip_gap:
        Relative MIP gap at which the solver may stop (``None`` = HiGHS's
        default).

    A Phase 1 or Phase 2 that keeps its LP repair does not search (see
    :mod:`repro.core.phase1` and :mod:`repro.core.phase2`).  Their
    ``time_limit`` and ``mip_gap`` apply to the MIP search that runs when
    the pinned LP has no optimum and, for Phase 2, to the flow's fallback
    search, which runs when the flow's final layout from the repair fails
    DRC (see :mod:`repro.core.pilp`).

    The exact flow (:mod:`repro.core.exact`) runs on HiGHS, to the gap,
    under ``PILPConfig.exact``: it solves relaxations with few chain points
    until one is feasible, lifts that one's optimum into the full model when
    a bend bound certifies it, and otherwise searches the full model, all
    within the one ``time_limit``.
    """

    time_limit: Optional[float] = 120.0
    mip_gap: Optional[float] = 0.02

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit <= 0:
            raise ConfigurationError("time_limit must be positive or None")
        if self.mip_gap is not None and not (0.0 <= self.mip_gap < 1.0):
            raise ConfigurationError("mip_gap must lie in [0, 1)")


@dataclass(frozen=True)
class PILPConfig:
    """Configuration of the progressive ILP layout generation flow.

    Attributes
    ----------
    weights:
        Objective weights shared by all phases.
    chain_points_per_microstrip:
        Initial number of chain points allocated to every microstrip
        (Section 5.1 fixes this "given number" to bound model complexity).
    max_chain_points:
        Upper limit on chain points per microstrip after Phase 3 insertions.
    confinement_window:
        The τ_d window (µm) of Phase 2: chain points and devices may move at
        most this far from their Phase-1 position.
    refinement_window:
        The (smaller) τ_d window of the Phase-3 iterations; the topology is
        already fixed, so refinement only needs local freedom and a small
        window keeps the per-iteration models easy.
    phase1_window:
        Half-size (µm) of the Phase-1 corridors around the force-directed
        seed placement (see :mod:`repro.core.seed`).  Phase 1 is always
        confined to them; the paper's unconfined Phase-1 model needs far
        longer solver budgets.
    blur_margin_factor:
        Phase 1 reserves space for blurred devices by expanding segment
        bounding boxes by ``blur_margin_factor x (mean device half dimension)``
        in addition to the normal clearance.
    blur_length_factor:
        Phase 1 grows each net's length target by
        ``blur_length_factor x (w + h) / 2`` of its terminal devices
        (equation (23)); 0.5 corresponds to the average centre-to-boundary
        distance.
    max_refinement_iterations:
        Maximum number of Phase 3 iterations.
    length_tolerance:
        Equivalent-length error (µm) below which a net counts as matched.
    phase1, phase2, phase3:
        Per-phase solver settings.
    exact:
        Solver settings of the exact model (Section 4): one time limit that
        every solve of the exact flow shares, and the gap each runs to.
    random_seed:
        Seed for the (deterministic) tie-breaking heuristics of the flow.
    """

    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    chain_points_per_microstrip: int = 5
    max_chain_points: int = 9
    confinement_window: float = 120.0
    refinement_window: float = 45.0
    phase1_window: float = 220.0
    blur_margin_factor: float = 0.35
    blur_length_factor: float = 0.5
    max_refinement_iterations: int = 4
    length_tolerance: float = 0.5
    phase1: PhaseSettings = field(default_factory=lambda: PhaseSettings(time_limit=180.0))
    phase2: PhaseSettings = field(default_factory=lambda: PhaseSettings(time_limit=120.0))
    phase3: PhaseSettings = field(default_factory=lambda: PhaseSettings(time_limit=90.0))
    exact: PhaseSettings = field(default_factory=lambda: PhaseSettings(time_limit=300.0))
    random_seed: int = 2016

    def __post_init__(self) -> None:
        if self.chain_points_per_microstrip < 2:
            raise ConfigurationError("chain_points_per_microstrip must be at least 2")
        if self.max_chain_points < self.chain_points_per_microstrip:
            raise ConfigurationError(
                "max_chain_points must be >= chain_points_per_microstrip"
            )
        if self.confinement_window <= 0:
            raise ConfigurationError("confinement_window must be positive")
        if self.refinement_window <= 0:
            raise ConfigurationError("refinement_window must be positive")
        if self.phase1_window <= 0:
            raise ConfigurationError("phase1_window must be positive")
        if self.blur_margin_factor < 0 or self.blur_length_factor < 0:
            raise ConfigurationError("blur factors must be non-negative")
        if self.max_refinement_iterations < 0:
            raise ConfigurationError("max_refinement_iterations must be non-negative")
        if self.length_tolerance <= 0:
            raise ConfigurationError("length_tolerance must be positive")

    def with_updates(self, **changes) -> "PILPConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)

    @staticmethod
    def fast() -> "PILPConfig":
        """A configuration tuned for unit tests and small examples.

        Short time limits, small chain-point budgets and a single refinement
        iteration: small circuits still come out DRC-clean, and the whole
        flow finishes in seconds.
        """
        return PILPConfig(
            chain_points_per_microstrip=5,
            max_chain_points=7,
            max_refinement_iterations=2,
            confinement_window=100.0,
            refinement_window=40.0,
            phase1=PhaseSettings(time_limit=20.0, mip_gap=0.05),
            phase2=PhaseSettings(time_limit=20.0, mip_gap=0.05),
            phase3=PhaseSettings(time_limit=15.0, mip_gap=0.05),
            exact=PhaseSettings(time_limit=30.0, mip_gap=0.02),
        )

    @staticmethod
    def paper() -> "PILPConfig":
        """A configuration sized like the paper's experiments.

        Generous time limits for the full-size reconstructed circuits
        (the paper reports 4-30 minutes per circuit on Gurobi).
        """
        return PILPConfig(
            chain_points_per_microstrip=5,
            max_chain_points=9,
            max_refinement_iterations=4,
            confinement_window=150.0,
            refinement_window=60.0,
            phase1=PhaseSettings(time_limit=600.0, mip_gap=0.02),
            phase2=PhaseSettings(time_limit=420.0, mip_gap=0.02),
            phase3=PhaseSettings(time_limit=300.0, mip_gap=0.02),
            exact=PhaseSettings(time_limit=1800.0, mip_gap=0.01),
        )
