"""Cache integrity: digests, verify-on-read quarantine, scrub, checkpoints.

Every behaviour here protects one invariant: **a corrupt artifact is never
served**.  Reads re-verify the manifest's SHA-256 digests and quarantine
mismatches (never delete — the evidence is preserved for forensics);
``scrub`` walks the whole store; solve checkpoints carry their own digest
and degrade to a cold solve when torn.
"""

import json
import os
import time

import pytest

from repro.faults import FAULTS, FaultSpec
from repro.runner import LayoutJob, ResultCache
from repro.runner.cache import (
    LAYOUT_FILE,
    MANIFEST_FILE,
    QUARANTINE_NOTE_FILE,
    STALE_STAGING_SECONDS,
    SolveCheckpointer,
)
from repro.core.checkpoint import CompletedPhase, SolveCheckpoint
from tests.conftest import build_tiny_netlist


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.clear()
    yield FAULTS
    FAULTS.clear()


@pytest.fixture(scope="module")
def manual_job_and_result():
    job = LayoutJob(flow="manual", netlist=build_tiny_netlist(), tag="integrity")
    return job, job.run()


def stored(tmp_path, manual_job_and_result, name="cache"):
    job, result = manual_job_and_result
    cache = ResultCache(tmp_path / name)
    entry = cache.put(job, result)
    assert entry is not None
    return cache, job, entry


def flip_byte(path, offset=10):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def tiny_checkpoint(stage="phase1"):
    return SolveCheckpoint(
        stage=stage,
        completed=[CompletedPhase(stage, {"phase": stage}, {"phase": stage})],
        layout_doc={"schema_version": 1, "placements": []},
        best_layout_doc=None,
        next_iteration=0,
        objective=1.5,
        elapsed_s=0.25,
    )


class TestVerifyOnRead:
    def test_manifest_records_artifact_digests(self, tmp_path, manual_job_and_result):
        _, _, entry = stored(tmp_path, manual_job_and_result)
        manifest = json.loads((entry.directory / MANIFEST_FILE).read_text())
        assert set(manifest["artifacts"]) == {"layout.json", "metrics.json"}
        for digest in manifest["artifacts"].values():
            assert len(digest) == 64

    def test_flipped_byte_is_never_served(self, tmp_path, manual_job_and_result):
        cache, job, entry = stored(tmp_path, manual_job_and_result)
        flip_byte(entry.directory / LAYOUT_FILE)
        assert cache.get(job) is None
        assert cache.stats.quarantined == 1
        # The entry was moved aside, not deleted: evidence survives.
        assert not entry.directory.exists()
        quarantined = list((cache.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        note = json.loads((quarantined[0] / QUARANTINE_NOTE_FILE).read_text())
        assert note["key"] == job.content_hash
        assert "digest" in note["reason"]

    def test_quarantined_entry_can_be_resolved_and_restored(
        self, tmp_path, manual_job_and_result
    ):
        cache, job, _ = stored(tmp_path, manual_job_and_result)
        flip_byte(cache.entry_dir(job.content_hash) / LAYOUT_FILE)
        assert cache.get(job) is None
        # The miss is exactly what triggers a re-solve upstream; a fresh
        # put repairs the cache in place.
        entry = cache.put(job, manual_job_and_result[1])
        assert entry is not None
        assert cache.get(job) is not None

    def test_injected_read_corruption_quarantines(
        self, tmp_path, manual_job_and_result
    ):
        cache, job, _ = stored(tmp_path, manual_job_and_result)
        FAULTS.install([FaultSpec("cache.read.corrupt", action="custom")])
        assert cache.get(job) is None
        assert cache.stats.quarantined == 1
        FAULTS.clear()
        assert cache.get(job) is None  # really gone, not just masked

    def test_legacy_entry_without_digests_still_served(
        self, tmp_path, manual_job_and_result
    ):
        cache, job, entry = stored(tmp_path, manual_job_and_result)
        manifest_path = entry.directory / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        del manifest["artifacts"]
        manifest_path.write_text(json.dumps(manifest))
        assert cache.get(job) is not None  # pre-digest entries verify vacuously


class TestScrub:
    def test_clean_cache_scrubs_clean(self, tmp_path, manual_job_and_result):
        cache, _, _ = stored(tmp_path, manual_job_and_result)
        report = cache.scrub()
        assert report["clean"] is True
        assert report["entries_scanned"] == 1
        assert report["entries_ok"] == 1

    def test_scrub_quarantines_corrupt_entry_then_reruns_clean(
        self, tmp_path, manual_job_and_result
    ):
        cache, _, entry = stored(tmp_path, manual_job_and_result)
        flip_byte(entry.directory / LAYOUT_FILE)
        report = cache.scrub()
        assert report["clean"] is False
        assert report["entries_corrupt"] == 1
        assert report["entries_quarantined"] == 1
        # After repair the cache is clean again (quarantine is not dirt).
        again = cache.scrub()
        assert again["clean"] is True
        assert again["quarantine_entries"] == 1

    def test_verify_is_read_only(self, tmp_path, manual_job_and_result):
        cache, job, entry = stored(tmp_path, manual_job_and_result)
        flip_byte(entry.directory / LAYOUT_FILE)
        report = cache.verify()
        assert report["clean"] is False
        assert report["entries_quarantined"] == 0
        assert entry.directory.exists()  # nothing was moved

    def test_scrub_removes_torn_checkpoints(self, tmp_path, manual_job_and_result):
        cache, job, _ = stored(tmp_path, manual_job_and_result)
        key = job.content_hash
        assert cache.write_checkpoint(key, tiny_checkpoint())
        path = cache.checkpoint_path(key)
        path.write_bytes(path.read_bytes()[:20])  # torn mid-write
        report = cache.scrub()
        assert report["checkpoints_corrupt"] == 1
        assert report["checkpoints_removed"] == 1
        assert not path.exists()

    def test_scrub_error_containment(self, tmp_path, manual_job_and_result):
        cache, _, _ = stored(tmp_path, manual_job_and_result)
        FAULTS.install([FaultSpec("cache.scrub", action="raise")])
        report = cache.scrub()
        assert report["errors"] == 1
        assert report["clean"] is False


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        assert not cache.has_checkpoint(key)
        assert cache.write_checkpoint(key, tiny_checkpoint("phase2"))
        assert cache.has_checkpoint(key)
        loaded = cache.read_checkpoint(key)
        assert loaded is not None
        assert loaded.stage == "phase2"
        assert loaded.elapsed_s == pytest.approx(0.25)
        assert cache.stats.checkpoint_writes == 1
        assert cache.stats.checkpoint_hits == 1

    def test_torn_checkpoint_degrades_to_cold(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        assert cache.write_checkpoint(key, tiny_checkpoint())
        path = cache.checkpoint_path(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.read_checkpoint(key) is None
        assert cache.stats.checkpoint_corrupt == 1
        assert not path.exists()  # cleaned up so the next probe is O(1)

    def test_tampered_digest_is_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        assert cache.write_checkpoint(key, tiny_checkpoint())
        path = cache.checkpoint_path(key)
        doc = json.loads(path.read_text())
        doc["elapsed_s"] = 9999.0  # tamper without re-signing
        path.write_text(json.dumps(doc))
        assert cache.read_checkpoint(key) is None
        assert cache.stats.checkpoint_corrupt == 1

    def test_wrong_content_hash_is_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, other = "12" * 32, "34" * 32
        assert cache.write_checkpoint(key, tiny_checkpoint())
        os.makedirs(cache.checkpoint_dir(other), exist_ok=True)
        cache.checkpoint_path(other).write_bytes(
            cache.checkpoint_path(key).read_bytes()
        )
        assert cache.read_checkpoint(other) is None  # a foreign job's state

    def test_write_fault_is_contained(self, tmp_path):
        cache = ResultCache(tmp_path)
        FAULTS.install(
            [FaultSpec("checkpoint.write", action="raise", errno_name="ENOSPC")]
        )
        assert cache.write_checkpoint("56" * 32, tiny_checkpoint()) is False
        assert cache.stats.checkpoint_write_errors == 1
        assert cache.last_put_error is not None

    def test_injected_read_corruption_degrades_to_cold(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "78" * 32
        assert cache.write_checkpoint(key, tiny_checkpoint())
        FAULTS.install([FaultSpec("checkpoint.read.corrupt", action="custom")])
        assert cache.read_checkpoint(key) is None
        assert cache.stats.checkpoint_corrupt == 1

    def test_clear_checkpoint(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "9a" * 32
        assert cache.write_checkpoint(key, tiny_checkpoint())
        cache.clear_checkpoint(key)
        assert not cache.has_checkpoint(key)
        cache.clear_checkpoint(key)  # idempotent

    def test_checkpointer_binds_cache_and_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        sink = SolveCheckpointer(cache, "bc" * 32)
        assert sink.load() is None
        assert sink.save(tiny_checkpoint("phase2"))
        assert sink.load().stage == "phase2"
        sink.clear()
        assert sink.load() is None


class TestStagingSweepGrace:
    def test_sweep_spares_a_live_writers_staging_dir(self, tmp_path):
        """A slow writer's staging dir must survive a concurrent sweep.

        The directory inode's mtime freezes once its files exist, so a
        writer still streaming *contents* into those files looks old by
        directory mtime alone.  The sweep must judge age by the newest
        mtime inside the dir, or it deletes in-flight work (the two-writer
        race this test pins down).
        """
        cache = ResultCache(tmp_path)
        staging = tmp_path / "tmp" / "deadbeef0000-123-abcd1234"
        staging.mkdir(parents=True)
        artifact = staging / LAYOUT_FILE
        artifact.write_text("{}")
        ancient = time.time() - 2 * STALE_STAGING_SECONDS
        os.utime(staging, (ancient, ancient))  # dir looks abandoned...
        # ...but a file inside was written moments ago: writer is alive.
        assert cache._sweep_stale_staging() == 0
        assert staging.is_dir()

    def test_sweep_removes_genuinely_abandoned_staging(self, tmp_path):
        cache = ResultCache(tmp_path)
        staging = tmp_path / "tmp" / "deadbeef0000-124-abcd1234"
        staging.mkdir(parents=True)
        artifact = staging / LAYOUT_FILE
        artifact.write_text("{}")
        ancient = time.time() - 2 * STALE_STAGING_SECONDS
        os.utime(staging, (ancient, ancient))
        os.utime(artifact, (ancient, ancient))
        assert cache._sweep_stale_staging() == 1
        assert not staging.exists()

    def test_two_writers_one_stalled_one_completing(
        self, tmp_path, manual_job_and_result
    ):
        """A completing put sweeps abandoned peers but never live ones."""
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        live = tmp_path / "tmp" / "aaaaaaaaaaaa-1-11111111"
        live.mkdir(parents=True)
        (live / LAYOUT_FILE).write_text("{}")  # fresh: writer mid-stream
        dead = tmp_path / "tmp" / "bbbbbbbbbbbb-2-22222222"
        dead.mkdir(parents=True)
        (dead / LAYOUT_FILE).write_text("{}")
        ancient = time.time() - 2 * STALE_STAGING_SECONDS
        os.utime(dead, (ancient, ancient))
        os.utime(dead / LAYOUT_FILE, (ancient, ancient))
        assert cache.put(job, result) is not None  # put runs the sweep
        assert live.is_dir()
        assert not dead.exists()
