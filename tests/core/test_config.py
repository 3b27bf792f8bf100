"""Unit tests for the P-ILP configuration objects."""

from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.core import BuildOptions, ObjectiveWeights, PILPConfig, PhaseSettings


class TestObjectiveWeights:
    def test_defaults_are_non_negative(self):
        weights = ObjectiveWeights()
        assert weights.alpha >= 0
        assert weights.eta >= 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            ObjectiveWeights(alpha=-1.0)

    def test_bend_weights_dominate_per_unit_length(self):
        # A single bend must cost more than a micrometre of length slack,
        # otherwise the solver would trade exactness for corners.
        weights = ObjectiveWeights()
        assert weights.alpha + weights.beta > weights.zeta


class TestPhaseSettings:
    def test_valid_settings(self):
        settings = PhaseSettings(time_limit=10.0, mip_gap=0.05)
        assert [f.name for f in fields(settings)] == ["time_limit", "mip_gap"]

    def test_invalid_time_limit(self):
        with pytest.raises(ConfigurationError):
            PhaseSettings(time_limit=0.0)

    def test_invalid_gap(self):
        with pytest.raises(ConfigurationError):
            PhaseSettings(mip_gap=1.5)

    def test_no_time_limit_allowed(self):
        assert PhaseSettings(time_limit=None).time_limit is None


class TestPILPConfig:
    def test_default_construction(self):
        config = PILPConfig()
        assert config.chain_points_per_microstrip >= 2
        assert config.max_chain_points >= config.chain_points_per_microstrip

    @pytest.mark.parametrize(
        "field,value",
        [
            ("chain_points_per_microstrip", 1),
            ("max_chain_points", 2),
            ("confinement_window", 0.0),
            ("refinement_window", -1.0),
            ("phase1_window", 0.0),
            ("blur_margin_factor", -0.5),
            ("max_refinement_iterations", -1),
            ("length_tolerance", 0.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        base = dict(chain_points_per_microstrip=4, max_chain_points=8)
        base[field] = value
        with pytest.raises(ConfigurationError):
            PILPConfig(**base)

    def test_with_updates_returns_copy(self):
        config = PILPConfig()
        faster = config.with_updates(confinement_window=50.0)
        assert faster.confinement_window == 50.0
        assert config.confinement_window != 50.0

    def test_fast_profile_is_cheaper_than_paper_profile(self):
        fast = PILPConfig.fast()
        paper = PILPConfig.paper()
        assert fast.phase1.time_limit < paper.phase1.time_limit
        assert fast.max_refinement_iterations <= paper.max_refinement_iterations

    def test_fields(self):
        assert [f.name for f in fields(PILPConfig)] == [
            "weights",
            "chain_points_per_microstrip",
            "max_chain_points",
            "confinement_window",
            "refinement_window",
            "phase1_window",
            "blur_margin_factor",
            "blur_length_factor",
            "max_refinement_iterations",
            "length_tolerance",
            "phase1",
            "phase2",
            "phase3",
            "exact",
            "random_seed",
        ]

    def test_refinement_window_not_larger_than_phase2_window(self):
        config = PILPConfig()
        assert config.refinement_window <= config.confinement_window


class TestBuildOptions:
    def test_fields(self):
        # Soft lengths bring overlap slack and blurred devices drop device
        # blocks, so neither has a switch of its own.
        assert [f.name for f in fields(BuildOptions)] == [
            "blurred_devices",
            "exact_lengths",
            "chain_point_counts",
            "device_windows",
            "chain_windows",
            "rotatable_devices",
            "fixed_rotations",
            "extra_segment_margin",
            "forced_spacing_pairs",
        ]
