"""Portfolio solving: race solver-configuration variants, keep the winner.

Competition-style tooling (SYNTCOMP and friends) shows that no single
solver configuration dominates across instances; racing a small portfolio
and keeping the first acceptable result is both faster in the median and
more robust in the tail.  This module applies the idea to the P-ILP flow:
each :class:`PortfolioVariant` rewrites the per-phase
:class:`~repro.core.config.PhaseSettings` of a base job (warm vs cold
starts, progressive stall stops on or off, HiGHS vs the pure-Python
branch-and-bound backend), all variants run concurrently through the
worker pool, and the race settles on

* the **first DRC-clean** result (remaining variants are cancelled), or
* failing that, the **best-scoring** finished result (fewest DRC
  violations, then fewest bends, then smallest length error, then runtime).

Because each variant is an ordinary :class:`LayoutJob` with its own content
hash, portfolio runs populate — and benefit from — the same result cache as
plain batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import PILPConfig
from repro.runner.jobs import LayoutJob
from repro.runner.pool import BatchRunner, JobOutcome

#: Phase attributes a variant may override on every phase.
_PHASE_FIELDS = ("phase1", "phase2", "phase3", "exact")


@dataclass(frozen=True)
class PortfolioVariant:
    """One configuration rewrite entered into the race.

    Attributes
    ----------
    name:
        Variant label (recorded on the job and in manifests).
    phase_overrides:
        Field/value pairs applied to all four :class:`PhaseSettings`
        (``phase1``..``phase3`` and ``exact``), e.g.
        ``{"warm_start": False}`` or ``{"backend": "branch-and-bound"}``.
    config_overrides:
        Field/value pairs applied to the :class:`PILPConfig` itself, e.g.
        ``{"max_refinement_iterations": 2}``.
    time_limit_scale:
        Multiplier on every phase's time limit (useful for "fast but
        sloppy" variants that should give up early).
    """

    name: str
    phase_overrides: Mapping[str, object] = field(default_factory=dict)
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    time_limit_scale: float = 1.0

    def apply(self, config: PILPConfig) -> PILPConfig:
        """Rewrite a base configuration into this variant's configuration."""
        changes: Dict[str, object] = dict(self.config_overrides)
        for name in _PHASE_FIELDS:
            settings = getattr(config, name)
            updated = replace(settings, **dict(self.phase_overrides))
            if self.time_limit_scale != 1.0 and updated.time_limit is not None:
                updated = replace(
                    updated, time_limit=updated.time_limit * self.time_limit_scale
                )
            changes[name] = updated
        return config.with_updates(**changes)


def default_variants() -> List[PortfolioVariant]:
    """The stock portfolio raced by ``rfic-layout batch --portfolio``.

    The base (warm + progressive HiGHS) configuration is usually fastest;
    the cold variant occasionally escapes a bad incumbent the warm start
    locked in; the branch-and-bound variant is the hedge against HiGHS
    pathologies and runs with a tighter budget so it never dominates the
    race's wall-clock.
    """
    return [
        PortfolioVariant("warm-progressive"),
        PortfolioVariant(
            "cold-restart", phase_overrides={"warm_start": False, "progressive": False}
        ),
        PortfolioVariant(
            "branch-bound",
            phase_overrides={"backend": "branch-and-bound", "progressive": False},
            time_limit_scale=0.5,
        ),
    ]


@dataclass
class PortfolioResult:
    """Outcome of one portfolio race."""

    job: LayoutJob
    outcomes: List[JobOutcome]
    winner: Optional[JobOutcome] = None

    @property
    def winner_variant(self) -> Optional[str]:
        return self.winner.job.variant if self.winner else None

    @property
    def drc_clean(self) -> bool:
        return bool(self.winner and self.winner.drc_clean)

    def row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"job": self.job.describe()}
        if self.winner is None:
            row.update({"status": "failed", "variant": None})
            return row
        row.update(self.winner.row())
        row["variant"] = self.winner_variant
        return row


def _score(outcome: JobOutcome) -> Tuple[float, float, float, float]:
    """Lower-is-better ranking of finished outcomes (used when none is clean)."""
    summary = outcome.summary or {}
    return (
        float(summary.get("drc_violations", float("inf"))),
        float(summary.get("total_bends", float("inf"))),
        float(summary.get("max_abs_length_error_um", float("inf"))),
        outcome.runtime,
    )


def run_portfolio(
    job: LayoutJob,
    runner: BatchRunner,
    variants: Optional[Sequence[PortfolioVariant]] = None,
) -> PortfolioResult:
    """Race configuration variants of one job and return the winner.

    The race stops at the first DRC-clean result (losers are cancelled);
    if no variant produces a clean layout, the best-scoring successful
    outcome wins; if nothing succeeds, ``winner`` is ``None``.
    """
    variants = list(variants) if variants is not None else default_variants()
    entries = [
        job.with_config(variant.apply(job.config), variant=variant.name)
        for variant in variants
    ]
    outcomes = runner.run(entries, stop_when=lambda outcome: outcome.drc_clean)

    clean = [outcome for outcome in outcomes if outcome.drc_clean]
    if clean:
        winner = clean[0]
    else:
        finished = [outcome for outcome in outcomes if outcome.ok]
        winner = min(finished, key=_score) if finished else None
    return PortfolioResult(job=job, outcomes=outcomes, winner=winner)


def run_portfolio_batch(
    jobs: Sequence[LayoutJob],
    runner: BatchRunner,
    variants: Optional[Sequence[PortfolioVariant]] = None,
) -> List[PortfolioResult]:
    """Race a portfolio for every job in turn.

    Races run sequentially so each job's variants get the full worker
    budget (the point of a race is losing as little wall-clock as possible
    on the losers).
    """
    return [run_portfolio(job, runner, variants) for job in jobs]
