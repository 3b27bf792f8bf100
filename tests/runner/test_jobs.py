"""Job-hash canonicalisation: the correctness contract of the result cache."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.circuit.loader import netlist_from_dict, netlist_to_dict
from repro.circuits import get_circuit
from repro.core.config import PhaseSettings, PILPConfig
from repro.runner import GeneratorSpec, LayoutJob, canonical_netlist_dict
from tests.conftest import build_tiny_netlist


def job_for(netlist, flow="pilp", **kwargs):
    return LayoutJob(flow=flow, netlist=netlist, **kwargs)


class TestHashCanonicalisation:
    def test_hash_is_deterministic(self):
        netlist = build_tiny_netlist()
        assert job_for(netlist).content_hash == job_for(netlist).content_hash

    def test_json_round_trip_preserves_hash(self):
        netlist = build_tiny_netlist()
        round_tripped = netlist_from_dict(
            json.loads(json.dumps(netlist_to_dict(netlist)))
        )
        assert job_for(netlist).content_hash == job_for(round_tripped).content_hash

    def test_dict_key_reordering_preserves_hash(self):
        netlist = build_tiny_netlist()
        document = netlist_to_dict(netlist)
        reordered = dict(reversed(list(document.items())))
        reordered["devices"] = [
            dict(reversed(list(entry.items()))) for entry in reordered["devices"]
        ]
        assert (
            job_for(netlist).content_hash
            == job_for(netlist_from_dict(reordered)).content_hash
        )

    def test_element_order_is_content(self):
        """Flows consume elements in list order, so order stays in the hash.

        Hashing it away would serve one ordering's cached layout for the
        other ordering's (potentially different) run.
        """
        netlist = build_tiny_netlist()
        document = netlist_to_dict(netlist)
        document["devices"] = list(reversed(document["devices"]))
        shuffled = netlist_from_dict(document)
        assert job_for(netlist).content_hash != job_for(shuffled).content_hash

    def test_hash_matches_exactly_what_executes(self):
        """The hashed document and the executed netlist are the same object."""
        netlist = build_tiny_netlist()
        job = job_for(netlist)
        assert job.resolve_netlist() is netlist
        assert canonical_netlist_dict(netlist) == netlist_to_dict(netlist)

    @pytest.mark.parametrize(
        "knob",
        [
            {"time_limit": 33.0},
            {"mip_gap": 0.011},
        ],
    )
    def test_any_phase_settings_knob_changes_hash(self, knob):
        netlist = build_tiny_netlist()
        base = job_for(netlist)
        changed = job_for(
            netlist, config=PILPConfig().with_updates(phase2=PhaseSettings(**knob))
        )
        assert base.content_hash != changed.content_hash

    def test_netlist_content_changes_hash(self):
        reference = job_for(build_tiny_netlist())
        document = netlist_to_dict(build_tiny_netlist())
        document["microstrips"][0]["target_length"] += 1.0
        changed = job_for(netlist_from_dict(document))
        assert reference.content_hash != changed.content_hash

    def test_flow_and_tag_change_hash(self):
        netlist = build_tiny_netlist()
        assert (
            job_for(netlist, flow="pilp").content_hash
            != job_for(netlist, flow="exact").content_hash
        )
        assert (
            job_for(netlist).content_hash
            != job_for(netlist, tag="salted").content_hash
        )

    def test_manual_flow_ignores_config(self):
        netlist = build_tiny_netlist()
        default = job_for(netlist, flow="manual")
        fast = job_for(netlist, flow="manual", config=PILPConfig.fast())
        assert default.content_hash == fast.content_hash

    def test_label_does_not_change_hash(self):
        netlist = build_tiny_netlist()
        assert job_for(netlist).content_hash == job_for(netlist, label="x").content_hash


class TestGeneratorSpec:
    def test_generator_job_hashes_like_materialised_netlist(self):
        from_generator = LayoutJob(
            flow="manual", generator=GeneratorSpec("lna60", "reduced")
        )
        from_netlist = LayoutJob(
            flow="manual", netlist=get_circuit("lna60", "reduced").netlist
        )
        assert from_generator.content_hash == from_netlist.content_hash

    def test_generator_seed_changes_hash(self):
        seeded = LayoutJob(
            flow="manual", generator=GeneratorSpec("lna60", "reduced", seed=7)
        )
        unseeded = LayoutJob(flow="manual", generator=GeneratorSpec("lna60", "reduced"))
        assert seeded.content_hash != unseeded.content_hash

    def test_netlist_is_resolved_once(self):
        job = LayoutJob(flow="manual", generator=GeneratorSpec("lna60", "reduced"))
        assert job.resolve_netlist() is job.resolve_netlist()


class TestValidationAndHelpers:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigurationError):
            LayoutJob(flow="pilp")
        with pytest.raises(ConfigurationError):
            LayoutJob(
                flow="pilp",
                netlist=build_tiny_netlist(),
                generator=GeneratorSpec("lna60"),
            )

    def test_rejects_unknown_flow(self):
        with pytest.raises(ConfigurationError):
            LayoutJob(flow="magic", netlist=build_tiny_netlist())

    def test_describe(self):
        assert job_for(build_tiny_netlist()).describe() == "tiny:pilp"
        assert job_for(build_tiny_netlist(), label="my-label").describe() == "my-label"
