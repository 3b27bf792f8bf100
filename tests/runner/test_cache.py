"""The content-addressed result cache: round-trips, stats, append-only."""

import json

import pytest

from repro.runner import LayoutJob, ResultCache
from tests.conftest import build_tiny_netlist


@pytest.fixture(scope="module")
def manual_job_and_result():
    job = LayoutJob(flow="manual", netlist=build_tiny_netlist())
    return job, job.run()


class TestPutGet:
    def test_round_trip(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(job) is None
        entry = cache.put(job, result)
        assert entry.directory.is_dir()
        assert cache.peek(job) is not None

        hit = cache.get(job)
        assert hit is not None
        assert hit.key == job.content_hash
        assert hit.summary["total_bends"] == result.metrics.total_bend_count
        assert hit.manifest["flow"] == "manual-like"
        assert hit.manifest["circuit"] == "tiny"

    def test_flow_result_reconstruction(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        rebuilt = cache.get(job).flow_result()
        assert rebuilt.circuit == result.circuit
        assert rebuilt.metrics.total_bend_count == result.metrics.total_bend_count
        assert rebuilt.metrics.max_bend_count == result.metrics.max_bend_count
        assert rebuilt.drc.count() == result.drc.count()
        assert rebuilt.runtime == pytest.approx(result.runtime, abs=0.01)

    def test_entry_is_sharded_by_hash_prefix(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        entry = cache.put(job, result)
        key = job.content_hash
        assert entry.directory == tmp_path / key[:2] / key[2:]


class TestStats:
    def test_hit_miss_counters(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        cache.get(job)
        cache.put(job, result)
        cache.get(job)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_peek_does_not_count(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        assert cache.peek(job) is None
        cache.put(job, result)
        assert cache.peek(job) is not None
        assert cache.stats.lookups == 0


class TestAppendOnly:
    def test_second_put_keeps_first_entry(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        first = cache.put(job, result)
        created = first.manifest["created_unix"]
        second = cache.put(job, result)
        assert second.manifest["created_unix"] == created
        assert cache.stats.stores == 1

    def test_no_staging_leftovers(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        staging = tmp_path / "tmp"
        assert not staging.exists() or not any(staging.iterdir())

    def test_stale_staging_dirs_are_swept(self, tmp_path, manual_job_and_result):
        import os

        job, result = manual_job_and_result
        orphan = tmp_path / "tmp" / "deadbeef-123-killed"
        orphan.mkdir(parents=True)
        (orphan / "layout.json").write_text("{}", encoding="utf-8")
        ancient = 1_000_000.0
        # Age the contents too: the sweep treats the newest mtime anywhere
        # in the dir as the writer's heartbeat, so a dir counts as orphaned
        # only when *everything* in it has gone quiet.
        os.utime(orphan / "layout.json", (ancient, ancient))
        os.utime(orphan, (ancient, ancient))
        fresh = tmp_path / "tmp" / "cafebabe-456-alive"
        fresh.mkdir(parents=True)

        ResultCache(tmp_path).put(job, result)
        assert not orphan.exists()
        assert fresh.exists()


class TestRobustness:
    def test_incomplete_entry_is_a_miss(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        entry = cache.put(job, result)
        (entry.directory / "metrics.json").unlink()
        assert cache.get(job) is None
        assert cache.peek(job) is None

    def test_corrupt_manifest_is_a_miss(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        entry = cache.put(job, result)
        (entry.directory / "manifest.json").write_text("{not json", encoding="utf-8")
        assert cache.get(job) is None

    def test_put_self_heals_corrupt_entry(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        entry = cache.put(job, result)
        (entry.directory / "metrics.json").write_text("{truncated", encoding="utf-8")
        healed = cache.put(job, result)
        assert healed.summary["total_bends"] == result.metrics.total_bend_count
        assert cache.get(job) is not None

    def test_put_self_heals_partial_entry(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        entry = cache.put(job, result)
        (entry.directory / "layout.json").unlink()
        healed = cache.put(job, result)
        assert healed.layout_path.is_file()
        assert cache.get(job).flow_result().circuit == result.circuit

    def test_empty_cache_is_falsy_but_usable(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        cache = ResultCache(tmp_path / "never-created")
        assert len(cache) == 0
        assert list(cache.iter_entries()) == []
        assert cache.get(job) is None


class TestPutFailureContainment:
    """Disk failures during a store are contained, not propagated."""

    @pytest.fixture(autouse=True)
    def _clear_faults(self):
        from repro.faults import FAULTS

        yield
        FAULTS.clear()

    def test_enospc_on_staging_is_contained(self, tmp_path, manual_job_and_result):
        from repro.faults import FAULTS, FaultSpec

        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        FAULTS.install([FaultSpec(point="cache.put.staging", errno_name="ENOSPC")])
        entry = cache.put(job, result)
        assert entry is None
        assert cache.stats.put_errors == 1
        assert "ENOSPC" in cache.last_put_error or "No space" in cache.last_put_error
        assert cache.peek(job) is None

    def test_eio_on_rename_is_contained(self, tmp_path, manual_job_and_result):
        from repro.faults import FAULTS, FaultSpec

        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        FAULTS.install([FaultSpec(point="cache.put.rename", errno_name="EIO")])
        assert cache.put(job, result) is None
        assert cache.stats.put_errors == 1
        # No staging garbage survives the failed store.
        staging = tmp_path / "tmp"
        assert not staging.exists() or not any(staging.iterdir())

    def test_next_put_recovers_and_clears_flag(self, tmp_path, manual_job_and_result):
        from repro.faults import FAULTS, FaultSpec

        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        FAULTS.install(
            [FaultSpec(point="cache.put.staging", errno_name="ENOSPC", times=1)]
        )
        assert cache.put(job, result) is None
        assert cache.last_put_error is not None
        entry = cache.put(job, result)  # the fault window has passed
        assert entry is not None
        assert cache.last_put_error is None
        assert cache.stats.put_errors == 1

    def test_injected_corruption_counts_as_put_error(
        self, tmp_path, manual_job_and_result
    ):
        from repro.faults import FAULTS, FaultSpec

        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        FAULTS.install([FaultSpec(point="cache.put.corrupt", action="custom")])
        assert cache.put(job, result) is None
        assert cache.stats.put_errors == 1
        FAULTS.clear()
        # The corrupt entry is a miss, and the next put self-heals it.
        assert cache.get(job) is None
        assert cache.put(job, result) is not None
        assert cache.get(job) is not None

    def test_append_only_still_wins_over_faults(self, tmp_path, manual_job_and_result):
        from repro.faults import FAULTS, FaultSpec

        job, result = manual_job_and_result
        cache = ResultCache(tmp_path)
        first = cache.put(job, result)
        assert first is not None
        FAULTS.install([FaultSpec(point="cache.put.staging", errno_name="ENOSPC")])
        # A valid entry exists, so put never reaches the staging write.
        again = cache.put(job, result)
        assert again is not None
        assert cache.stats.put_errors == 0


class TestIteration:
    def test_iter_entries_lists_all(self, tmp_path, manual_job_and_result):
        job, result = manual_job_and_result
        salted = LayoutJob(flow="manual", netlist=build_tiny_netlist(), tag="other")
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        cache.put(salted, result)
        entries = list(cache.iter_entries())
        assert len(entries) == len(cache) == 2
        assert {entry.key for entry in entries} == {
            job.content_hash,
            salted.content_hash,
        }
        for entry in entries:
            document = json.loads(entry.layout_path.read_text())
            assert document["circuit"] == "tiny"
