"""Trace propagation across the fork boundary and across daemon restarts.

Two invariants from the observability layer:

* the trace ID minted at admission survives the pickle across the fork
  boundary into the worker process and comes back on the outcome, along
  with the worker's solve profile;
* after a daemon restart the trace ID survives journal replay, and span
  trees for jobs settled in the dead epoch are *synthesized* from the
  journal and marked ``truncated`` — degraded, never dropped.
"""

import threading
from types import SimpleNamespace

from repro.runner import BatchRunner, LayoutJob, ResultCache
from repro.runner.pool import JobOutcome
from repro.service import JobQueue, LayoutScheduler, LayoutService, ServiceClient
from tests.conftest import build_tiny_netlist


def tiny_job(tag="", trace_id=""):
    return LayoutJob(
        flow="manual", netlist=build_tiny_netlist(), tag=tag, trace_id=trace_id
    )


class TestForkBoundary:
    def test_trace_id_and_profile_cross_the_fork(self, tmp_path):
        """A real worker process: trace rides the pickle out and back."""
        runner = BatchRunner(workers=1, cache_dir=tmp_path / "cache")
        outcome = runner.run([tiny_job("fork", trace_id="feedfacefeedface")])[0]
        assert outcome.status == "completed"
        assert outcome.trace_id == "feedfacefeedface"
        profile = outcome.profile
        assert profile is not None
        assert profile["total_s"] > 0
        assert profile["cache_put_s"] >= 0

    def test_trace_id_not_part_of_the_content_hash(self):
        plain = tiny_job("hash")
        traced = tiny_job("hash", trace_id="feedfacefeedface")
        assert plain.content_hash == traced.content_hash

    def test_cache_hit_keeps_the_submitting_trace(self, tmp_path):
        runner = BatchRunner(workers=0, cache_dir=tmp_path / "cache")
        first = runner.run([tiny_job("cached", trace_id="trace-one-000000")])[0]
        assert first.status == "completed"
        second = runner.run([tiny_job("cached", trace_id="trace-two-000000")])[0]
        assert second.status == "cached"
        # The serve belongs to the *second* submission's trace.
        assert second.trace_id == "trace-two-000000"
        # The entry still carries the original run's cost breakdown.
        assert second.profile is not None


class TestWorkerSpans:
    def test_worker_children_fit_inside_the_worker_span(self, tmp_path):
        """``worker_fork`` must not count the cache put a second time."""
        scheduler = LayoutScheduler(
            queue=JobQueue(tmp_path / "svc", fsync=False),
            cache=ResultCache(tmp_path / "cache"),
            pool_workers=0,
        )
        record = SimpleNamespace(key="rigged")
        scheduler.traces.begin(record.key, "feedfacefeedface")
        outcome = JobOutcome(
            job=tiny_job("spans"),
            status="completed",
            runtime=0.25,
            profile={
                "phases": [{"phase": "phase1", "wall_s": 0.25}],
                "cache_put_s": 0.125,
            },
        )
        scheduler._record_worker_spans(record, outcome, 1000.0, 0.5)
        spans = scheduler.traces.get(record.key).spans
        worker = [span for span in spans if span.name == "worker"]
        children = [span for span in spans if span.parent == "worker"]
        assert [span.duration_s for span in worker] == [0.5]
        assert {span.name for span in children} == {
            "worker_fork", "solve.phase1", "cache_put"
        }
        assert sum(span.duration_s for span in children) <= 0.5 + 1e-9


class TestDaemonRestart:
    def _boot(self, tmp_path):
        service = LayoutService(
            data_dir=tmp_path / "svc", inline=True, concurrency=1, fsync=False
        )
        service.bind(port=0)
        service.start()
        threading.Thread(target=service.serve_forever, daemon=True).start()
        return service, ServiceClient(
            f"http://127.0.0.1:{service.port}", timeout=30.0
        )

    def test_trace_id_survives_journal_replay(self, tmp_path):
        service, client = self._boot(tmp_path)
        try:
            response = client.submit_document(
                {
                    "flow": "manual",
                    "netlist": tiny_job().canonical_dict()["netlist"],
                    "tag": "replay",
                },
                trace_id="0123456789abcdef",
            )
            key = response["key"]
            client.wait(key, timeout=60)
        finally:
            service.shutdown()

        # Second epoch over the same journal: the record (and its trace
        # ID) must come back from replay.
        service2, client2 = self._boot(tmp_path)
        try:
            record = client2.status(key)
            assert record["state"] == "done"
            assert record["trace_id"] == "0123456789abcdef"

            trace = client2.trace(key)
            assert trace["trace"] == "0123456789abcdef"
            # The in-memory spans died with epoch one; the tree is
            # synthesized from journal timestamps, flagged truncated.
            assert trace["truncated"] is True
            assert trace["spans"], "crashed-epoch spans dropped, not truncated"
            for span in trace["spans"]:
                assert span["truncated"] is True
            assert trace["total_s"] is not None
        finally:
            service2.shutdown()

    def test_replayed_pending_job_gets_truncated_admission_span(self, tmp_path):
        service, client = self._boot(tmp_path)
        try:
            service.scheduler.stop()  # freeze dispatch: job stays queued
            response = client.submit_document(
                {
                    "flow": "manual",
                    "netlist": tiny_job().canonical_dict()["netlist"],
                    "tag": "pending",
                },
                trace_id="fedcba9876543210",
            )
            key = response["key"]
        finally:
            service.shutdown()

        # Epoch two dispatches the replayed job for real.
        service2, client2 = self._boot(tmp_path)
        try:
            record = client2.wait(key, timeout=60)
            assert record["state"] == "done"
            assert record["trace_id"] == "fedcba9876543210"
            trace = client2.trace(key)
            names = {span["name"]: span for span in trace["spans"]}
            # The admission happened in the dead epoch: its span is
            # synthesized (truncated); the live dispatch/worker spans are
            # genuine measurements.
            assert names["admission"]["truncated"] is True
            assert "truncated" not in names["worker"]
            assert trace["truncated"] is True
        finally:
            service2.shutdown()
