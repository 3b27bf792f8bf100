"""The snapshot diff engine: classification, tolerances, gate semantics."""

import json

import pytest

from repro.cli import main
from repro.loadgen import (
    compare_snapshots,
    diff_snapshot_files,
    write_snapshot,
)


def payload(
    settle_p95=0.5,
    failures=0,
    seed=2016,
    throughput=3.4,
    lost=0,
    attached=121,
    rejected=10,
):
    """A miniature load-report data tree with every metric class in it."""
    return {
        "ok": True,
        "spec": {"jobs": 240, "unique_jobs": 40, "seed": seed},
        "config": {"concurrency": 2, "class_limits": {"background": 4}},
        "dispositions": {"queued": 40, "attached": attached, "cached": 69},
        "rejected_429": rejected,
        "settle_latency_s": {
            "count": 240, "p50": settle_p95 / 2.0, "p95": settle_p95,
        },
        "throughput": {"settled_jobs_per_s": throughput},
        "lost_jobs": [f"job-{i}" for i in range(lost)],
        "submit_errors": [],
        "server_stats": {"failures": failures},
        "reconciliation": {
            "settled": {"client": 240 - rejected, "server": 240 - rejected,
                        "ok": True},
        },
    }


def two_files(tmp_path, base_data, cur_data):
    base = write_snapshot("gate", base_data, directory=tmp_path / "base")
    cur = write_snapshot("gate", cur_data, directory=tmp_path / "cur")
    return base, cur


class TestVerdicts:
    def test_same_plan_rerun_is_clean(self, tmp_path):
        # Same plan, timing jitter and a different disposition split:
        # exactly what two honest runs of one workload look like.
        base, cur = two_files(
            tmp_path,
            payload(settle_p95=0.50, attached=121, rejected=10),
            payload(settle_p95=0.61, attached=118, rejected=13),
        )
        report = diff_snapshot_files(base, cur)
        assert report.verdict == "ok"
        assert not report.plan_mismatch
        assert report.gate_verdict(gate=True) == "ok"

    def test_10x_latency_regression_fails(self, tmp_path):
        base, cur = two_files(
            tmp_path, payload(settle_p95=0.5), payload(settle_p95=5.5)
        )
        report = diff_snapshot_files(base, cur)
        assert report.verdict == "regression"
        offenders = [
            e.path for e in report.entries if e.verdict == "regression"
        ]
        assert "settle_latency_s.p95" in offenders

    def test_moderate_latency_drift_only_warns(self, tmp_path):
        base, cur = two_files(
            tmp_path, payload(settle_p95=0.5), payload(settle_p95=1.6)
        )
        report = diff_snapshot_files(base, cur)
        assert report.verdict == "warn"
        assert report.gate_verdict(gate=True) == "warn"

    def test_sub_floor_latency_jitter_ignored(self, tmp_path):
        # 4x drift, but both sides under the 5ms noise floor: scheduler
        # jitter, not signal.
        base, cur = two_files(
            tmp_path, payload(settle_p95=0.001), payload(settle_p95=0.004)
        )
        assert diff_snapshot_files(base, cur).verdict == "ok"

    def test_latency_improvement_is_ok_and_noted(self, tmp_path):
        base, cur = two_files(
            tmp_path, payload(settle_p95=5.0), payload(settle_p95=0.5)
        )
        report = diff_snapshot_files(base, cur)
        assert report.verdict == "ok"
        improved = [e for e in report.entries if e.note == "improved"]
        assert any(e.path == "settle_latency_s.p95" for e in improved)

    def test_throughput_collapse_fails(self, tmp_path):
        base, cur = two_files(
            tmp_path, payload(throughput=3.4), payload(throughput=0.3)
        )
        report = diff_snapshot_files(base, cur)
        assert report.verdict == "regression"

    def test_counter_drift_is_always_a_regression(self, tmp_path):
        base, cur = two_files(
            tmp_path, payload(failures=0), payload(failures=1)
        )
        report = diff_snapshot_files(base, cur)
        bad = {e.path: e for e in report.entries if e.verdict == "regression"}
        assert "server_stats.failures" in bad
        assert bad["server_stats.failures"].metric_class == "counter"

    def test_lost_jobs_gated_via_list_length(self, tmp_path):
        base, cur = two_files(tmp_path, payload(lost=0), payload(lost=2))
        report = diff_snapshot_files(base, cur)
        bad = [e.path for e in report.entries if e.verdict == "regression"]
        assert "lost_jobs.len" in bad

    def test_reconciliation_flag_flip_fails(self, tmp_path):
        cur_data = payload()
        cur_data["reconciliation"]["settled"]["ok"] = False
        base, cur = two_files(tmp_path, payload(), cur_data)
        report = diff_snapshot_files(base, cur)
        bad = [e.path for e in report.entries if e.verdict == "regression"]
        assert "reconciliation.settled.ok" in bad

    def test_reconciliation_tallies_are_not_gated(self, tmp_path):
        # The client/server tallies inside reconciliation are disposition
        # counts — timing-dependent, so drift must stay informational.
        cur_data = payload(rejected=13)
        base, cur = two_files(tmp_path, payload(rejected=10), cur_data)
        report = diff_snapshot_files(base, cur)
        entry = {e.path: e for e in report.entries}[
            "reconciliation.settled.client"
        ]
        assert entry.metric_class == "info"
        assert entry.verdict == "ok"

    def test_latency_tail_samples_are_not_gated(self, tmp_path):
        # max (and p99 at CI sample sizes) is a single worst observation;
        # one GC pause legitimately moves it >10x between correct runs.
        # The gate rides mean/p50/p95 instead.
        from repro.loadgen.compare import classify

        assert classify("sse.live_lag_s.max") == "info"
        assert classify("sse.live_lag_s.p99") == "info"
        assert classify("settle_latency_s.max") == "info"
        assert classify("settle_latency_s.p95") == "latency"
        assert classify("settle_latency_s.mean") == "latency"
        base_data = payload()
        base_data["settle_latency_s"]["max"] = 0.05
        cur_data = payload()
        cur_data["settle_latency_s"]["max"] = 0.66  # 13x — still ok
        base, cur = two_files(tmp_path, base_data, cur_data)
        report = diff_snapshot_files(base, cur)
        assert report.verdict == "ok"
        assert report.gate_verdict(gate=True) == "ok"


class TestPlanAndProvenance:
    def test_plan_mismatch_warns_and_fails_under_gate(self, tmp_path):
        base, cur = two_files(
            tmp_path, payload(seed=2016), payload(seed=2017)
        )
        report = diff_snapshot_files(base, cur)
        assert report.verdict == "warn"
        assert report.plan_mismatch
        assert report.gate_verdict(gate=False) == "warn"
        assert report.gate_verdict(gate=True) == "regression"

    def test_cross_host_comparison_warns(self):
        def envelope(host):
            return {
                "schema": "rfic-bench", "schema_version": 1, "name": "x",
                "host": host, "platform": "Linux-x", "data": payload(),
            }

        report = compare_snapshots(envelope("ci-a"), envelope("ci-b"))
        assert any("host differs" in w for w in report.provenance_warnings)
        assert report.verdict == "ok"  # a warning, not a verdict

    def test_pre_provenance_baseline_reads_as_unrecorded(self):
        old = {
            "schema": "rfic-bench", "schema_version": 1, "name": "x",
            "data": payload(),
        }
        new = dict(old, host="ci-a", platform="Linux-x")
        report = compare_snapshots(old, new)
        assert any("unrecorded" in w for w in report.provenance_warnings)

    def test_new_info_metric_missing_in_baseline_is_ok(self, tmp_path):
        cur_data = payload()
        cur_data["brand_new_section"] = {"events": 7}
        base, cur = two_files(tmp_path, payload(), cur_data)
        report = diff_snapshot_files(base, cur)
        entry = {e.path: e for e in report.entries}[
            "brand_new_section.events"
        ]
        assert entry.verdict == "ok"
        assert "missing in baseline" in entry.note

    def test_counter_missing_in_current_warns(self, tmp_path):
        # A reconciliation check that vanished from the candidate run is
        # suspicious (a silently-dropped invariant), so it warns.
        base_data = payload()
        base_data["reconciliation"]["attached"] = {"ok": True}
        base, cur = two_files(tmp_path, base_data, payload())
        report = diff_snapshot_files(base, cur)
        entry = {e.path: e for e in report.entries}[
            "reconciliation.attached.ok"
        ]
        assert entry.verdict == "warn"
        assert "missing in current" in entry.note


class TestCLI:
    def test_exit_zero_on_same_plan_rerun(self, tmp_path, capsys):
        base, cur = two_files(
            tmp_path, payload(settle_p95=0.5), payload(settle_p95=0.6)
        )
        assert main(["bench", "diff", str(base), str(cur), "--gate"]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_exit_nonzero_on_injected_10x_regression(self, tmp_path, capsys):
        base, cur = two_files(
            tmp_path, payload(settle_p95=0.5), payload(settle_p95=5.5)
        )
        assert main(["bench", "diff", str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_gate_fails_plan_mismatch_but_plain_diff_passes(
        self, tmp_path, capsys
    ):
        base, cur = two_files(
            tmp_path, payload(seed=2016), payload(seed=2017)
        )
        assert main(["bench", "diff", str(base), str(cur)]) == 0
        assert main(["bench", "diff", str(base), str(cur), "--gate"]) == 1
        assert "plan mismatch" in capsys.readouterr().out

    def test_json_and_report_outputs(self, tmp_path, capsys):
        base, cur = two_files(
            tmp_path, payload(settle_p95=0.5), payload(settle_p95=5.5)
        )
        report_path = tmp_path / "diff.json"
        code = main([
            "bench", "diff", str(base), str(cur),
            "--json", "--report", str(report_path),
        ])
        assert code == 1
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(report_path.read_text(encoding="utf-8"))
        assert printed == on_disk
        assert printed["verdict"] == "regression"
        assert printed["gate_verdict"] == "regression"
        assert printed["counts"]["regression"] >= 1
        paths = {entry["path"] for entry in printed["entries"]}
        assert "settle_latency_s.p95" in paths

    def test_missing_baseline_is_an_error(self, tmp_path):
        cur = write_snapshot("gate", payload(), directory=tmp_path)
        with pytest.raises(SystemExit, match="no benchmark snapshot"):
            main(["bench", "diff", str(tmp_path / "BENCH_absent.json"), str(cur)])

    def test_corrupt_baseline_is_actionable(self, tmp_path):
        base, cur = two_files(tmp_path, payload(), payload())
        base.write_text("{torn", encoding="utf-8")
        with pytest.raises(SystemExit, match="torn or truncated"):
            main(["bench", "diff", str(base), str(cur)])


class TestCommittedBaseline:
    def test_committed_service_load_baseline_self_diff_gates_clean(self):
        # The exact invocation CI's bench-gate step runs, degenerate
        # case: the committed baseline must always gate clean against
        # itself, or the gate is wrong before any code changes.
        from pathlib import Path

        baseline = Path(__file__).resolve().parents[2] / "BENCH_service_load.json"
        report = diff_snapshot_files(baseline, baseline)
        assert report.gate_verdict(gate=True) == "ok"
        assert len(report.entries) > 50
