"""Exactly-once settlement through the scheduler's one settle path.

A record that is already terminal when a dispatcher settles it (another
settler won the race) must stay untouched *observably* too: no counter
bump, no latency observation, no terminal event, no log line.
"""

import time

import pytest

from repro.runner import LayoutJob
from repro.runner.cache import ResultCache
from repro.runner.pool import JobOutcome
from repro.service import JobQueue, LayoutScheduler, job_to_document
from tests.conftest import build_tiny_netlist


def tiny_document(tag=""):
    return job_to_document(
        LayoutJob(flow="manual", netlist=build_tiny_netlist(), tag=tag)
    )


class RacedRunner:
    """Settles the dispatched record behind the scheduler's back, then
    reports ``result`` (an outcome to return, or an exception to raise)."""

    workers = 0

    def __init__(self, result):
        self.result = result
        self.scheduler = None
        self.calls = 0

    def run_one(self, job, progress=None):
        self.calls += 1
        self.scheduler.queue.settle(job.content_hash, "cancelled", error="raced")
        if isinstance(self.result, Exception):
            raise self.result
        return JobOutcome(job=job, **self.result)


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


@pytest.mark.parametrize(
    "result",
    [
        RuntimeError("dispatcher boundary"),
        {"status": "completed", "summary": {"circuit": "tiny"}, "runtime": 0.5},
        {"status": "failed", "error": "ValueError: rigged", "runtime": 0.5},
    ],
    ids=["exception", "completed", "failed"],
)
def test_settling_a_terminal_record_changes_nothing(tmp_path, log_lines, result):
    runner = RacedRunner(result)
    scheduler = LayoutScheduler(
        queue=JobQueue(tmp_path / "svc", fsync=False),
        cache=ResultCache(tmp_path / "cache"),
        runner=runner,
    )
    runner.scheduler = scheduler
    scheduler.start()
    try:
        record, _ = scheduler.submit(tiny_document("raced"))
        subscription = scheduler.bus.subscribe(record.key)
        assert wait_until(lambda: runner.calls == 1)
    finally:
        scheduler.stop()  # joins the dispatcher: its settle attempt is done
    settled = scheduler.queue.get(record.key)
    assert (settled.state, settled.error) == ("cancelled", "raced")
    for counter in ("solved", "failures", "served_from_cache", "checkpoint_writes"):
        assert scheduler.telemetry.count(counter) == 0, counter
    assert scheduler.telemetry.latency.snapshot()["count"] == 0
    kinds = []
    while (event := subscription.get(timeout=0.1)) is not None:
        kinds.append(event["kind"])
    assert kinds == ["queued", "running"]
    assert not [line for line in log_lines() if line["event"] == "job.settled"]


def test_cache_serve_at_admission_settles_through_the_one_path(tmp_path, log_lines):
    cache = ResultCache(tmp_path / "cache")
    first = LayoutScheduler(
        queue=JobQueue(tmp_path / "a", fsync=False), cache=cache, pool_workers=0
    )
    first.start()
    try:
        record, _ = first.submit(tiny_document("warm"))
        assert wait_until(lambda: first.queue.get(record.key).terminal)
    finally:
        first.stop()
    # A second daemon sharing the cache settles the job at admission.
    second = LayoutScheduler(
        queue=JobQueue(tmp_path / "b", fsync=False), cache=cache, pool_workers=0
    )
    served, disposition = second.submit(tiny_document("warm"))
    assert disposition == "cached"
    assert served.state == "done"
    assert served.summary["served"] == "cache"
    assert second.telemetry.count("served_from_cache") == 1
    assert second.telemetry.latency.snapshot()["count"] == 1
    kinds = [event["kind"] for event in second.bus.history(served.key)]
    assert kinds == ["queued", "done"]
    settled_lines = [
        line for line in log_lines()
        if line["event"] == "job.settled" and line["key"] == served.key[:12]
    ]
    assert [line["state"] for line in settled_lines] == ["done", "done"]
