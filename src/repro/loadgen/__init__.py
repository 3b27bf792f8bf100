"""Synthetic-load generation for the layout service.

The load harness answers the question the ROADMAP's north star poses:
*does the daemon survive heavy traffic, and how fast is it?*  It boots a
real :class:`~repro.service.daemon.LayoutService` on an ephemeral port,
drives it with concurrent seeded submitters mixing cold solves, cache
hits, attaches and background floods while SSE watchers stream events,
and reconciles the client-observed dispositions against the server's
``/stats`` counters — exactly, because the counters are now lock-
protected.  Results persist as schema-versioned ``BENCH_*.json``
snapshots so every future PR diffs against a recorded baseline.

Layers
------
:mod:`repro.loadgen.workload`
    Deterministic, seeded workload plans (:class:`WorkloadSpec`).
:mod:`repro.loadgen.metrics`
    Percentiles, latency summaries, queue-depth sampling.
:mod:`repro.loadgen.snapshot`
    The ``BENCH_*.json`` envelope: write/load/compare.
:mod:`repro.loadgen.harness`
    :func:`run_load_test` — boot, drive, measure, reconcile.
:mod:`repro.loadgen.compare`
    :func:`compare_snapshots` — the regression gate over two snapshots.
"""

from repro.loadgen.compare import (
    DiffEntry,
    DiffReport,
    compare_snapshots,
    diff_snapshot_files,
)
from repro.loadgen.harness import LoadReport, LoadTestConfig, run_load_test
from repro.loadgen.metrics import DepthSampler, percentile, summarize
from repro.loadgen.snapshot import (
    BENCH_DIR_ENV,
    CorruptSnapshotError,
    SNAPSHOT_SCHEMA,
    SNAPSHOT_SCHEMA_VERSION,
    load_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.loadgen.workload import PlannedSubmission, WorkloadSpec

__all__ = [
    "BENCH_DIR_ENV",
    "CorruptSnapshotError",
    "DepthSampler",
    "DiffEntry",
    "DiffReport",
    "LoadReport",
    "LoadTestConfig",
    "PlannedSubmission",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_SCHEMA_VERSION",
    "WorkloadSpec",
    "compare_snapshots",
    "diff_snapshot_files",
    "load_snapshot",
    "percentile",
    "run_load_test",
    "snapshot_path",
    "summarize",
    "write_snapshot",
]
