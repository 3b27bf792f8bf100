"""Tests of the command-line interface (fast paths only)."""

import json

import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.core.config import PILPConfig
from tests.conftest import build_tiny_netlist, write_netlist


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "rfic-layout" in capsys.readouterr().out

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_generate_flow_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["generate", "x.json", "--flow", "magic"])

    def test_time_limit_keeps_each_phase_gap(self):
        args = build_parser().parse_args(["generate", "x.json", "--fast", "--time-limit", "7"])
        config = _config_from_args(args)
        fast = PILPConfig.fast()
        for name in ("phase1", "phase2", "phase3", "exact"):
            assert getattr(config, name).time_limit == 7.0
            assert getattr(config, name).mip_gap == getattr(fast, name).mip_gap


class TestServiceCommands:
    def test_help_epilog_documents_service_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        for token in ("serve", "submit", "status", "Server-Sent-Events", "journal"):
            assert token in output

    def test_submit_requires_a_netlist(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_submit_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            main(["submit", "nosuch", "--service", "http://127.0.0.1:1"])

    def test_submit_unreachable_service_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["submit", "lna60", "--flow", "manual", "--service", "http://127.0.0.1:1"])

    def test_status_unreachable_service_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["status", "--service", "http://127.0.0.1:1"])

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8080
        assert args.data_dir == ".rfic-service"
        assert args.dispatchers == 2
        assert not args.inline

    def test_inline_serve_rejects_job_timeout(self, tmp_path):
        with pytest.raises(SystemExit, match="--job-timeout needs worker processes"):
            main([
                "serve", "--data-dir", str(tmp_path / "svc"), "--port", "0",
                "--inline", "--job-timeout", "5",
            ])
        assert not (tmp_path / "svc").exists()  # refused before booting

    def test_serve_slo_flags(self):
        args = build_parser().parse_args(["serve"])
        assert args.slo_availability is None
        assert args.slo_latency_p95 is None
        assert args.slo_window == 300.0
        args = build_parser().parse_args(
            ["serve", "--slo-availability", "0.99",
             "--slo-latency-p95", "30", "--slo-window", "120"]
        )
        assert args.slo_availability == 0.99
        assert args.slo_latency_p95 == 30.0
        assert args.slo_window == 120.0


class TestBenchCommand:
    def test_diff_parser_defaults(self):
        args = build_parser().parse_args(["bench", "diff", "a.json", "b.json"])
        assert args.baseline == "a.json"
        assert args.current == "b.json"
        assert not args.gate
        assert not args.json
        assert args.report is None

    def test_diff_requires_two_snapshots(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "diff", "only-one.json"])

    def test_bench_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])


class TestCircuitsCommand:
    def test_lists_all_circuits(self, capsys):
        assert main(["circuits"]) == 0
        output = capsys.readouterr().out
        for name in ("lna94", "buffer60", "lna60"):
            assert name in output


class TestGenerateCommand:
    def test_unknown_netlist_argument(self):
        with pytest.raises(SystemExit):
            main(["generate", "/nonexistent/netlist.json"])

    def test_manual_flow_on_netlist_file(self, tmp_path, capsys):
        netlist_path = write_netlist(build_tiny_netlist(), tmp_path / "tiny.json")
        output_path = tmp_path / "layout.json"
        svg_path = tmp_path / "layout.svg"
        code = main(
            [
                "generate",
                str(netlist_path),
                "--flow",
                "manual",
                "--output",
                str(output_path),
                "--svg",
                str(svg_path),
            ]
        )
        assert code == 0
        assert output_path.exists()
        assert svg_path.exists()
        document = json.loads(output_path.read_text())
        assert document["circuit"] == "tiny"
        printed = capsys.readouterr().out
        assert "manual flow result" in printed


class TestGenerateSeed:
    def test_seed_on_benchmark_circuit(self, tmp_path, capsys):
        output_path = tmp_path / "seeded.json"
        code = main(
            [
                "generate", "lna60", "--flow", "manual",
                "--seed", "7", "--output", str(output_path),
            ]
        )
        assert code == 0
        seeded = json.loads(output_path.read_text())

        unseeded_path = tmp_path / "unseeded.json"
        main(["generate", "lna60", "--flow", "manual", "--output", str(unseeded_path)])
        unseeded = json.loads(unseeded_path.read_text())
        capsys.readouterr()

        seeded_lengths = sorted(
            net["target_length"] for net in seeded["netlist"]["microstrips"]
        )
        unseeded_lengths = sorted(
            net["target_length"] for net in unseeded["netlist"]["microstrips"]
        )
        assert seeded_lengths != unseeded_lengths


class TestBatchCommand:
    def test_batch_parser_rejects_bad_flow(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["batch", "--flow", "magic"])

    def test_batch_has_no_portfolio_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--portfolio"])

    def test_unknown_circuit_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", "nosuch", "--cache-dir", str(tmp_path)])

    def test_batch_cold_then_cached(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = [
            "batch", "lna60", "--flow", "manual",
            "--cache-dir", str(cache_dir), "--workers", "0",
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "completed" in cold
        assert "0 hit(s)" in cold

        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cached" in warm
        assert "1 hit(s)" in warm

    def test_batch_json_output(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.json"
        code = main(
            [
                "batch", "lna60", "--flow", "manual", "--no-cache",
                "--workers", "0", "--quiet", "--json", str(rows_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        document = json.loads(rows_path.read_text())
        rows = document["rows"]
        assert len(rows) == 1
        assert rows[0]["status"] == "completed"
        assert rows[0]["job"] == "lna60[0]:manual"
        assert document["cache"] is None  # --no-cache => no footer counters
        assert document["failures"] == 0

    def test_batch_json_cache_footer_has_raw_counts(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.json"
        args = [
            "batch", "lna60", "--flow", "manual",
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "0", "--quiet", "--json", str(rows_path),
        ]
        assert main(args) == 0
        assert main(args) == 0  # second run hits the cache
        capsys.readouterr()
        cache = json.loads(rows_path.read_text())["cache"]
        assert cache["hits"] == 1
        assert cache["misses"] == 0
        assert cache["lookups"] == 1
        assert cache["stores"] == 0
        assert cache["hit_rate"] == 1.0

    def test_batch_all_areas_adds_jobs(self, tmp_path, capsys):
        code = main(
            [
                "batch", "lna60", "--flow", "manual", "--all-areas",
                "--no-cache", "--workers", "0", "--quiet",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "lna60[0]:manual" in output
        assert "lna60[1]:manual" in output

    def test_timeout_makes_batch_exit_nonzero(self, capsys):
        code = main(
            [
                "batch", "lna60", "--flow", "manual", "--no-cache",
                "--workers", "1", "--timeout", "0.01", "--quiet",
            ]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "timeout" in output
        assert "failed or timed out" in output

    def test_inline_batch_rejects_timeout(self):
        with pytest.raises(SystemExit, match="--timeout needs worker processes"):
            main([
                "batch", "lna60", "--flow", "manual", "--no-cache",
                "--workers", "0", "--timeout", "5", "--quiet",
            ])

    def test_default_cancels_rest_after_failure(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.json"
        code = main(
            [
                "batch", "lna60", "--flow", "manual", "--all-areas", "--no-cache",
                "--workers", "1", "--timeout", "0.01", "--quiet",
                "--json", str(rows_path),
            ]
        )
        assert code == 1
        capsys.readouterr()
        document = json.loads(rows_path.read_text())
        statuses = [row["status"] for row in document["rows"]]
        assert statuses[0] == "timeout"
        assert "cancelled" in statuses  # the rest of the batch was cut short
        assert document["failures"] == 1

    def test_keep_going_runs_everything_but_still_fails(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.json"
        code = main(
            [
                "batch", "lna60", "--flow", "manual", "--all-areas", "--no-cache",
                "--workers", "1", "--timeout", "0.01", "--quiet", "--keep-going",
                "--json", str(rows_path),
            ]
        )
        assert code == 1
        capsys.readouterr()
        document = json.loads(rows_path.read_text())
        statuses = [row["status"] for row in document["rows"]]
        assert statuses == ["timeout", "timeout"]  # nothing was cancelled
        assert document["failures"] == 2
        assert document["keep_going"] is True

    def test_batch_sweep_generates_workload(self, tmp_path, capsys):
        code = main(
            [
                "batch", "--flow", "manual", "--no-cache", "--workers", "0",
                "--quiet", "--sweep-stages", "1", "--sweep-seeds", "1,2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "amp1s_" in output
        assert "running 2 job(s)" in output
