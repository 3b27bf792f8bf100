"""Worker pool: parallelism, crash isolation, timeouts, dedup, cancellation.

The rigged job subclasses below override ``run()`` so no MILP solver is
involved; the pool only ever sees ``LayoutJob`` objects, which keeps these
tests fast while exercising the real scheduling machinery (fork, queues,
termination).
"""

import os
import time

import pytest

from repro.geometry import ManhattanPath, Point
from repro.layout import Layout, Placement, RoutedMicrostrip
from repro.layout.drc import DRCReport, run_drc
from repro.layout.metrics import compute_metrics
from repro.core.result import FlowResult
from repro.runner import BatchRunner, LayoutJob, ResultCache, WorkerPool
from tests.conftest import build_tiny_netlist


def make_flow_result(clean: bool = False) -> FlowResult:
    """A hand-built FlowResult on the tiny netlist (no solver involved)."""
    netlist = build_tiny_netlist()
    layout = Layout(netlist)
    layout.set_placement(Placement("P_IN", Point(30.0, 150.0)))
    layout.set_placement(Placement("P_OUT", Point(370.0, 150.0)))
    layout.set_placement(Placement("M1", Point(200.0, 150.0)))
    gate = layout.pin_position("M1", "G")
    drain = layout.pin_position("M1", "D")
    pad_in = layout.pin_position("P_IN", "SIG")
    pad_out = layout.pin_position("P_OUT", "SIG")
    layout.set_route(
        RoutedMicrostrip(
            "ms_in", ManhattanPath([pad_in, Point(gate.x, pad_in.y), gate], width=10.0)
        )
    )
    layout.set_route(
        RoutedMicrostrip(
            "ms_out",
            ManhattanPath([drain, Point(pad_out.x, drain.y), pad_out], width=10.0),
        )
    )
    return FlowResult(
        flow="rigged",
        circuit=netlist.name,
        layout=layout,
        metrics=compute_metrics(layout),
        drc=DRCReport(violations=[]) if clean else run_drc(layout),
        runtime=0.01,
    )


class QuickJob(LayoutJob):
    """Returns a hand-built result immediately."""

    def run(self):
        return make_flow_result()


class CleanJob(LayoutJob):
    """Returns a DRC-clean result immediately."""

    def run(self):
        return make_flow_result(clean=True)


class FailingJob(LayoutJob):
    """Raises inside the worker (exception isolation)."""

    def run(self):
        raise ValueError("rigged failure")


class CrashingJob(LayoutJob):
    """Dies without reporting (hard-crash isolation)."""

    def run(self):
        os._exit(17)


class SleepyJob(LayoutJob):
    """Outlives any reasonable per-job timeout."""

    def run(self):
        time.sleep(30.0)
        return make_flow_result()


def quick(tag, cls=QuickJob):
    return cls(flow="manual", netlist=build_tiny_netlist(), tag=tag)


class TestPoolExecution:
    def test_parallel_batch_preserves_input_order(self):
        jobs = [quick(f"j{i}") for i in range(4)]
        outcomes = WorkerPool(workers=2).run(jobs)
        assert [o.status for o in outcomes] == ["completed"] * 4
        assert [o.job.tag for o in outcomes] == ["j0", "j1", "j2", "j3"]
        assert all(o.summary["circuit"] == "tiny" for o in outcomes)

    def test_flow_result_without_cache_uses_layout_doc(self):
        outcome = WorkerPool(workers=1).run([quick("doc")])[0]
        assert outcome.layout_doc is not None
        rebuilt = outcome.flow_result()
        assert rebuilt.circuit == "tiny"
        assert (
            rebuilt.metrics.total_bend_count
            == make_flow_result().metrics.total_bend_count
        )

    def test_exception_is_isolated(self):
        jobs = [quick("a"), quick("b", FailingJob), quick("c")]
        outcomes = WorkerPool(workers=2).run(jobs)
        assert [o.status for o in outcomes] == ["completed", "failed", "completed"]
        assert "rigged failure" in outcomes[1].error
        with pytest.raises(RuntimeError):
            outcomes[1].flow_result()

    def test_crash_is_isolated(self):
        jobs = [quick("a"), quick("b", CrashingJob)]
        outcomes = WorkerPool(workers=2).run(jobs)
        assert outcomes[0].status == "completed"
        assert outcomes[1].status == "failed"
        assert "crashed" in outcomes[1].error
        assert "17" in outcomes[1].error

    def test_timeout_terminates_job(self):
        jobs = [quick("slow", SleepyJob), quick("fast")]
        started = time.perf_counter()
        outcomes = WorkerPool(workers=2, job_timeout=1.0).run(jobs)
        elapsed = time.perf_counter() - started
        assert outcomes[0].status == "timeout"
        assert outcomes[1].status == "completed"
        assert elapsed < 15.0

    def test_deadline_wakes_the_pool(self):
        """A timeout settles at its deadline, not at a later poll tick."""
        started = time.perf_counter()
        outcome = WorkerPool(workers=1, job_timeout=0.3).run([quick("slow", SleepyJob)])[0]
        assert outcome.status == "timeout"
        assert time.perf_counter() - started < 2.5

    def test_crash_grace_wakes_the_pool(self):
        """A silent child's crash settles once its grace ends."""
        started = time.perf_counter()
        outcome = WorkerPool(workers=1).run([quick("crash", CrashingJob)])[0]
        assert outcome.status == "failed"
        assert "exit code 17" in outcome.error
        assert time.perf_counter() - started < 2.0

    def test_identical_jobs_run_once(self, tmp_path):
        events = []
        cache = ResultCache(tmp_path)
        pool = WorkerPool(workers=2, cache=cache, progress=events.append)
        job_a = quick("same")
        job_b = quick("same")
        assert job_a.content_hash == job_b.content_hash
        outcomes = pool.run([job_a, job_b])
        assert [o.status for o in outcomes] == ["completed", "completed"]
        assert sum(1 for e in events if e.kind == "started") == 1
        assert outcomes[1].summary == outcomes[0].summary

    def test_stop_when_cancels_remaining(self):
        jobs = [quick("first"), quick("hang", SleepyJob), quick("never")]
        outcomes = WorkerPool(workers=1).run(
            jobs, stop_when=lambda outcome: outcome.ok
        )
        assert outcomes[0].status == "completed"
        assert {outcomes[1].status, outcomes[2].status} == {"cancelled"}


class TestCacheIntegration:
    def test_workers_populate_and_hit_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick("cacheme")
        first = WorkerPool(workers=1, cache=cache).run([job])[0]
        assert first.status == "completed"
        assert first.entry is not None
        second = WorkerPool(workers=1, cache=cache).run([job])[0]
        assert second.status == "cached"
        assert (
            second.flow_result().metrics.total_bend_count
            == make_flow_result().metrics.total_bend_count
        )

    def test_inline_mode_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        pool = WorkerPool(workers=0, cache=cache)
        assert pool.run([quick("inline")])[0].status == "completed"
        assert pool.run([quick("inline")])[0].status == "cached"
        assert cache.stats.hits == 1

    def test_inline_mode_isolates_exceptions(self):
        outcomes = WorkerPool(workers=0).run([quick("x", FailingJob), quick("y")])
        assert [o.status for o in outcomes] == ["failed", "completed"]


class TestProgressEvents:
    def test_event_sequence(self):
        events = []
        WorkerPool(workers=1, progress=events.append).run([quick("events")])
        kinds = [event.kind for event in events]
        assert kinds == ["submitted", "started", "completed"]
        assert events[-1].label == "tiny:manual"
        assert str(events[-1]).startswith("tiny:manual")

    def test_per_call_progress_on_run_one(self):
        """run_one emits the same lifecycle stream a batch emits (the layout
        service's SSE feed subscribes per dispatched job this way)."""
        events = []
        outcome = BatchRunner(workers=0).run_one(quick("single"), progress=events.append)
        assert outcome.status == "completed"
        assert [event.kind for event in events] == ["submitted", "completed"]

    def test_per_call_progress_augments_pool_progress(self):
        pool_events, call_events = [], []
        runner = BatchRunner(workers=0, progress=pool_events.append)
        runner.run_one(quick("both"), progress=call_events.append)
        assert [e.kind for e in pool_events] == [e.kind for e in call_events]
        assert len(call_events) == 2

    def test_cached_outcome_reaches_per_call_progress(self, tmp_path):
        runner = BatchRunner(cache_dir=tmp_path, workers=0)
        runner.run_one(quick("cachedprog"))
        events = []
        outcome = runner.run_one(quick("cachedprog"), progress=events.append)
        assert outcome.status == "cached"
        assert [event.kind for event in events] == ["submitted", "cached"]


class TestBatchRunner:
    def test_facade_round_trip(self, tmp_path):
        runner = BatchRunner(cache_dir=tmp_path, workers=1)
        outcome = runner.run_one(quick("facade"))
        assert outcome.status == "completed"
        assert runner.run_one(quick("facade")).status == "cached"
        stats = runner.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_no_cache_configured(self):
        runner = BatchRunner(workers=0)
        assert runner.cache is None
        assert runner.cache_stats() == {}
        assert runner.run_one(quick("nocache")).ok

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=-1)


def traced(tag, cls=QuickJob, trace="trace-parity"):
    job = quick(tag, cls)
    job.trace_id = trace
    return job


class TestInlineForkedParity:
    """``workers=0`` and forked workers run and report a job the same way."""

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_same_job_same_outcome(self, tmp_path, cached):
        outcomes = {}
        for workers in (0, 1):
            cache = ResultCache(tmp_path / f"w{workers}") if cached else None
            pool = WorkerPool(workers=workers, cache=cache)
            outcomes[workers] = pool.run([traced("parity")])[0]
        inline, forked = outcomes[0], outcomes[1]
        assert inline.status == forked.status == "completed"
        assert inline.summary == forked.summary
        assert inline.phases == forked.phases
        assert inline.runtime == forked.runtime
        assert set(inline.profile) == set(forked.profile)
        assert ("cache_put_s" in inline.profile) is cached
        assert (inline.entry is None) == (forked.entry is None) == (not cached)
        assert (inline.layout_doc is None) == (forked.layout_doc is None) == cached
        if cached:
            assert inline.entry.summary == forked.entry.summary
        else:
            assert inline.layout_doc == forked.layout_doc
        assert inline.trace_id == forked.trace_id == "trace-parity"

    def test_failing_job_same_error_and_log(self, log_lines):
        outcomes = {
            workers: WorkerPool(workers=workers).run([traced("boom", FailingJob)])[0]
            for workers in (0, 1)
        }
        assert outcomes[0].status == outcomes[1].status == "failed"
        assert outcomes[0].error == outcomes[1].error == "ValueError: rigged failure"
        assert outcomes[0].trace_id == outcomes[1].trace_id == "trace-parity"
        failed = [line for line in log_lines() if line["event"] == "worker.failed"]
        assert len(failed) == 2  # one per mode
        assert all(line["error"] == "ValueError: rigged failure" for line in failed)
        assert all(line["trace"] == "trace-parity" for line in failed)

    def test_cancellation_same_error(self):
        results = {}
        for workers in (0, 1):
            events = []
            outcomes = WorkerPool(workers=workers, progress=events.append).run(
                [quick("first"), quick("second"), quick("third")],
                stop_when=lambda outcome: outcome.ok,
            )
            cancelled = [e.detail for e in events if e.kind == "cancelled"]
            results[workers] = (
                [o.status for o in outcomes], [o.error for o in outcomes], cancelled
            )
        assert results[0] == results[1]
        statuses, errors, details = results[0]
        assert statuses == ["completed", "cancelled", "cancelled"]
        assert errors == [None, "cancelled", "cancelled"]
        assert details == ["cancelled", "cancelled"]

    def test_keyboard_interrupt_cancels_the_rest_inline(self):
        class Interrupted(LayoutJob):
            def run(self):
                raise KeyboardInterrupt

        events = []
        with pytest.raises(KeyboardInterrupt):
            WorkerPool(workers=0, progress=events.append).run(
                [quick("stop", Interrupted), quick("later")]
            )
        assert [(e.kind, e.job_key) for e in events if e.kind != "submitted"] == [
            ("cancelled", quick("later").content_hash[:12])
        ]
