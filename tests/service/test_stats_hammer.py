"""Concurrency hammer: ``/stats`` counters must be *exact* under load.

The scheduler once mutated its counters with bare read-modify-write
``+=`` from every dispatcher and HTTP thread; under concurrent submission
the counts silently drifted.  The counters now live in the metrics
registry and every increment takes the registry lock.  These tests fail
on the racy implementation and pin the fix.
"""

import collections
import threading

from repro.runner import LayoutJob
from repro.runner.cache import ResultCache
from repro.service import JobQueue, LayoutScheduler, job_to_document
from tests.conftest import build_tiny_netlist


def tiny_document(tag=""):
    return job_to_document(
        LayoutJob(flow="manual", netlist=build_tiny_netlist(), tag=tag)
    )


def make_scheduler(tmp_path, name="svc", concurrency=2):
    queue = JobQueue(tmp_path / name, fsync=False)
    cache = ResultCache(tmp_path / f"{name}-cache")
    return LayoutScheduler(
        queue=queue, cache=cache, concurrency=concurrency, pool_workers=0
    )


def test_bump_is_atomic_across_16_threads(tmp_path):
    """The raw counter primitive: 16 threads x 2000 increments, no loss."""
    scheduler = make_scheduler(tmp_path)
    threads = [
        threading.Thread(
            target=lambda: [
                scheduler.telemetry.bump("solved") for _ in range(2000)
            ]
        )
        for _ in range(16)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert scheduler.telemetry.count("solved") == 16 * 2000
    assert scheduler.stats()["solved"] == 16 * 2000


def test_stats_exact_after_concurrent_submissions(tmp_path):
    """8 submitter threads, mixed fresh/duplicate jobs: counters reconcile
    exactly against the dispositions every thread observed."""
    scheduler = make_scheduler(tmp_path, concurrency=2)
    scheduler.start()
    try:
        documents = [tiny_document(tag=f"hammer-{i}") for i in range(12)]
        per_thread: list = []
        barrier = threading.Barrier(8)

        def submit_wave(thread_index):
            tally = collections.Counter()
            barrier.wait()  # maximal contention: all threads enter together
            for i in range(24):
                document = documents[(thread_index + i) % len(documents)]
                _, disposition = scheduler.submit(
                    document, client=f"hammer-{thread_index}"
                )
                tally[disposition] += 1
            per_thread.append(tally)

        threads = [
            threading.Thread(target=submit_wave, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        done = threading.Event()

        def all_settled():
            counts = scheduler.queue.counts()
            return counts["queued"] + counts["running"] == 0

        for _ in range(600):
            if all_settled():
                done.set()
                break
            threading.Event().wait(0.05)
        assert done.is_set(), "jobs never settled"

        tally = collections.Counter()
        for partial in per_thread:
            tally.update(partial)
        assert sum(tally.values()) == 8 * 24

        stats = scheduler.stats()
        # Exactly one server counter bump per disposition path:
        assert stats["attached"] == tally["attached"]
        assert (
            stats["solved"] + stats["served_from_cache"] + stats["failures"]
            == tally["queued"] + tally["requeued"] + tally["cached"]
        )
        assert stats["failures"] == 0
        assert stats["solved"] == len(documents)
        # And the journal's per-state counts agree with a full recount.
        recount = collections.Counter(r.state for r in scheduler.queue.records())
        for state, count in scheduler.queue.counts().items():
            assert count == recount.get(state, 0)
    finally:
        scheduler.stop()


def test_stats_document_is_a_coherent_snapshot(tmp_path):
    """stats() reads all nine counters under one lock acquisition — a
    reader racing the hammer above must never see a half-updated set.
    Structural check: the snapshot keys exist and are ints."""
    scheduler = make_scheduler(tmp_path)
    stats = scheduler.stats()
    for key in ("solved", "served_from_cache", "attached", "failures"):
        assert isinstance(stats[key], int)
    for key in ("rejected", "shed"):
        assert isinstance(stats["admission"][key], int)
    for key in ("dispatcher_restarts", "crash_retries", "poisoned"):
        assert isinstance(stats["supervision"][key], int)
