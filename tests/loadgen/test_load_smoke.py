"""The CI load-smoke tier: a real daemon under a fixed synthetic load.

``pytest -m load_smoke`` runs exactly this module.  It boots a real
HTTP daemon on an ephemeral port, fires 200+ mixed-disposition jobs at
it from 8 concurrent submitters while 24 SSE watchers stream events,
and then holds the run to the strictest standard the service tier
offers: every client-observed disposition must reconcile *exactly*
against the server's ``/stats`` counters, with zero lost jobs.  The
full measurement report is persisted as a schema-versioned
``BENCH_service_load.json`` (honouring ``RFIC_BENCH_DIR``; defaults to
the test's tmp dir so plain test runs do not dirty the checkout).
"""

import os

import pytest

from repro.loadgen import (
    LoadTestConfig,
    WorkloadSpec,
    load_snapshot,
    run_load_test,
    write_snapshot,
)

pytestmark = pytest.mark.load_smoke

#: The fixed CI workload: ≥200 jobs, ≥8 submitters, ≥20 watchers.
SMOKE_SPEC = WorkloadSpec(
    jobs=200,
    unique_jobs=40,
    submitters=8,
    watchers=24,
    cached_wave=40,
    seed=2016,
)

SMOKE_CONFIG = LoadTestConfig(
    concurrency=2,
    class_limits={"background": 4},  # the background flood sheds
    settle_timeout=100.0,  # the whole run must fit the CI budget
)


def test_load_smoke(tmp_path):
    report = run_load_test(SMOKE_SPEC, data_dir=tmp_path / "svc", config=SMOKE_CONFIG)
    bench_dir = os.environ.get("RFIC_BENCH_DIR") or tmp_path
    path = write_snapshot("service_load", report.to_snapshot_data(), directory=bench_dir)

    # -- the snapshot exists and round-trips through the versioned schema
    envelope = load_snapshot(path)
    assert envelope["name"] == "service_load"
    assert envelope["schema_version"] == 1
    data = envelope["data"]

    # -- the workload really was mixed and at full scale
    assert report.submitted == SMOKE_SPEC.jobs + SMOKE_SPEC.cached_wave
    dispositions = report.dispositions
    assert dispositions.get("queued", 0) >= SMOKE_SPEC.unique_jobs
    assert dispositions.get("attached", 0) > 0
    assert dispositions.get("cached", 0) >= SMOKE_SPEC.cached_wave

    # -- every counter reconciles exactly; nothing was lost or errored
    checks = report.reconcile()
    failing = sorted(name for name, check in checks.items() if not check["ok"])
    # The failing keys lead the message, so pytest's truncation keeps them.
    assert not failing, (failing, [checks[name] for name in failing])

    # -- the /metrics exposition reconciles with the run
    assert report.metrics_midrun_error is None  # parse-clean mid-run scrape
    assert report.metrics_text, "final /metrics scrape missing"
    # Every settlement landed exactly one histogram observation …
    assert checks["metrics_latency_count"]["ok"], checks["metrics_latency_count"]
    # … and queue_wait + solve + overhead sums back to end-to-end latency.
    assert checks["metrics_stage_attribution"]["ok"], checks[
        "metrics_stage_attribution"
    ]
    # Client-observed percentiles sit inside the server histogram buckets.
    for name in ("metrics_settle_p50_bounds", "metrics_settle_p95_bounds"):
        assert name in checks, "percentile reconciliation never ran"
        assert checks[name]["ok"], checks[name]

    # -- one solved job's span tree covers its end-to-end latency
    trace = report.trace_sample
    assert trace, "no solved job produced a span tree"
    assert trace["total_s"] is not None
    assert abs(trace["span_sum_s"] - trace["total_s"]) <= max(
        0.5, 0.1 * trace["total_s"]
    ), trace
    span_names = {span["name"] for span in trace["spans"]}
    assert {"admission", "queue_wait", "worker", "settle"} <= span_names
    assert report.lost_jobs == []
    assert report.submit_errors == []
    stats = report.server_stats
    assert stats["solved"] + stats["served_from_cache"] + stats["failures"] == (
        dispositions.get("queued", 0)
        + dispositions.get("requeued", 0)
        + dispositions.get("cached", 0)
    )
    assert stats["attached"] == dispositions.get("attached", 0)

    # -- the SSE watcher pool was really streaming
    assert report.watchers_started >= 20
    assert report.watchers_stalled == 0
    assert report.sse_events > 0

    # -- measurements landed in the snapshot
    assert data["admission_latency_s"]["count"] == report.submitted
    assert data["settle_latency_s"]["count"] >= SMOKE_SPEC.unique_jobs - data[
        "rejected_429"
    ]
    assert data["queue_depth"]["peak"] > 0
    assert data["wall_s"] < 120.0


def test_load_smoke_backpressure_reconciles(tmp_path):
    """A background flood against a tiny class cap: 429s, still exact."""
    spec = WorkloadSpec(
        jobs=30,
        unique_jobs=30,
        submitters=8,
        watchers=0,
        interactive_fraction=0.0,
        background_fraction=1.0,
        seed=99,
    )
    config = LoadTestConfig(concurrency=1, class_limits={"background": 2})
    report = run_load_test(spec, data_dir=tmp_path / "svc", config=config)
    assert report.rejected_429 > 0, "the flood never tripped the class cap"
    admission = report.server_stats["admission"]
    assert admission["rejected"] + admission["shed"] == report.rejected_429
    checks = report.reconcile()
    failing = sorted(name for name, check in checks.items() if not check["ok"])
    # The failing keys lead the message, so pytest's truncation keeps them.
    assert not failing, (failing, [checks[name] for name in failing])
    assert report.lost_jobs == []
