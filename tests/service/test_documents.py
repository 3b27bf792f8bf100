"""Wire-format round trips: job/config/sweep documents and hash stability."""

import json

import pytest

from repro.core.config import PhaseSettings, PILPConfig
from repro.errors import ConfigurationError
from repro.runner import GeneratorSpec, LayoutJob
from repro.service import (
    config_from_dict,
    config_to_dict,
    expand_submission,
    job_from_document,
    job_to_document,
    sweep_from_document,
)
from repro.service.documents import priority_rank, validate_priority
from tests.conftest import build_tiny_netlist


class TestConfigRoundTrip:
    def test_default_config(self):
        assert config_from_dict(config_to_dict(PILPConfig())) == PILPConfig()

    def test_fast_config(self):
        assert config_from_dict(config_to_dict(PILPConfig.fast())) == PILPConfig.fast()

    def test_missing_document_means_default(self):
        assert config_from_dict(None) == PILPConfig()
        assert config_from_dict({}) == PILPConfig()

    def test_customised_config_survives_json(self):
        config = PILPConfig.fast().with_updates(
            random_seed=7, phase1=PhaseSettings(time_limit=3.0, mip_gap=0.3)
        )
        document = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(document) == config

    def test_unknown_field_rejected(self):
        documents = [
            {"frobnicate": 1},
            # Phase fields an older client may still send: refused, not hashed.
            {"phase1": {"warm_start": False}},
            {"exact": {"backend": "bnb"}},
            {"phase3": {"progressive": True}},
            # Flow switches no flow varied: refused, not hashed.
            {"guided_phase1": False},
            {"same_net_spacing": True},
            {"overlap_tolerance": 0.5},
        ]
        for document in documents:
            with pytest.raises(ConfigurationError):
                config_from_dict(document)


class TestJobRoundTrip:
    def test_netlist_job_hash_is_stable(self):
        job = LayoutJob(flow="manual", netlist=build_tiny_netlist(), tag="x")
        document = json.loads(json.dumps(job_to_document(job)))
        rebuilt = job_from_document(document)
        assert rebuilt.content_hash == job.content_hash
        assert rebuilt.flow == "manual"
        assert rebuilt.tag == "x"

    def test_generator_job_hash_matches_materialised_job(self):
        lazy = LayoutJob(generator=GeneratorSpec("buffer60", seed=3), config=PILPConfig.fast())
        rebuilt = job_from_document(json.loads(json.dumps(job_to_document(lazy))))
        assert rebuilt.content_hash == lazy.content_hash
        assert rebuilt.generator is not None  # stayed lazy on the wire

    def test_document_needs_exactly_one_source(self):
        with pytest.raises(ConfigurationError):
            job_from_document({"flow": "manual"})
        with pytest.raises(ConfigurationError):
            job_from_document(
                {
                    "flow": "manual",
                    "netlist": {"name": "x"},
                    "generator": {"circuit": "buffer60"},
                }
            )

    def test_unknown_flow_rejected(self):
        with pytest.raises(ConfigurationError):
            job_from_document({"flow": "magic", "generator": {"circuit": "buffer60"}})


class TestSweepDocuments:
    def test_sweep_expands_to_grid_points(self):
        submission = {
            "flow": "manual",
            "sweep": {"stage_counts": [1], "seeds": [1, 2, 3]},
        }
        documents = expand_submission(submission)
        assert len(documents) == 3
        keys = {job_from_document(d).content_hash for d in documents}
        assert len(keys) == 3  # distinct seeds => distinct jobs

    def test_plain_document_passes_through(self):
        document = {"flow": "manual", "generator": {"circuit": "buffer60"}}
        assert expand_submission(document) == [document]

    def test_unknown_sweep_field_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_from_document({"colour": "blue"})


class TestPriorities:
    def test_validation_and_ranking(self):
        assert validate_priority(None) == "batch"
        assert priority_rank("interactive") < priority_rank("batch") < priority_rank(
            "background"
        )
        with pytest.raises(ConfigurationError):
            validate_priority("urgent")
