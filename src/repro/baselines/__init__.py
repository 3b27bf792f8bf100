"""Baseline flows: the sequential place-then-route "manual-like" methodology."""

from repro.baselines.annealing import AnnealingConfig, AnnealingPlacer
from repro.baselines.greedy_router import GreedyRouter, GreedyRouterConfig
from repro.baselines.manual_like import ManualLikeFlow

__all__ = [
    "AnnealingPlacer",
    "AnnealingConfig",
    "GreedyRouter",
    "GreedyRouterConfig",
    "ManualLikeFlow",
]
