"""Command-line interface: ``rfic-layout`` (or ``python -m repro.cli``).

Sub-commands
------------
``generate``
    Run the P-ILP flow (or the exact / manual-like flow) on a netlist JSON
    file and write the resulting layout (JSON + SVG).
``batch``
    Run many layout jobs through the :mod:`repro.runner` subsystem:
    parallel workers, a content-addressed result cache and parameter-grid
    sweeps.
``table1``
    Regenerate (part of) the paper's Table 1 and print it.
``figure11``
    Regenerate (part of) the paper's Figure 11 and print the gain summary.
``circuits``
    List the reconstructed benchmark circuits and their statistics.
``serve``
    Run the persistent layout-generation service: durable job queue,
    HTTP API, Server-Sent-Events progress streaming.
``submit``
    Submit a job to a running service (optionally wait / stream events).
``status``
    Query a running service: one job's record, or the ``/stats`` summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

# Before anything imports numpy or scipy: solve processes (``serve``,
# ``batch`` and every worker they fork) make only small BLAS calls, which
# gain nothing from threads, yet each idle OpenBLAS pool thread spins after
# every call on a core another job needs.  An explicit setting still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro import __version__
from repro.circuit.loader import load_netlist
from repro.circuits import circuit_names, get_circuit
from repro.core.config import PILPConfig
from repro.core.exact import ExactLayoutGenerator
from repro.core.pilp import PILPLayoutGenerator
from repro.baselines.manual_like import ManualLikeFlow
from repro.experiments.figure11 import FIGURE11_CIRCUITS, run_figure11
from repro.experiments.report import format_text_table, save_json
from repro.experiments.table1 import run_table1
from repro.layout.export_json import save_layout
from repro.layout.export_svg import save_svg


_EPILOG = """\
service sub-commands:
  serve    run the persistent layout-generation service.  Jobs submitted over
           HTTP are journaled to <data-dir>/journal.jsonl (they survive daemon
           restarts), deduplicated against in-flight work and the
           content-addressed result cache, and dispatched with priority
           classes (interactive > batch > background) and per-client fairness.
           Endpoints: POST /jobs, GET /jobs[/{hash}[/layout.json|layout.svg|
           events]], GET /stats.  /events is a Server-Sent-Events stream of
           the job lifecycle (queued -> running -> done).
  submit   submit one netlist/benchmark-circuit job to a running service;
           --wait polls to completion, --watch streams its SSE events.
           Both exit non-zero when the job settles failed/timeout/cancelled,
           and --watch survives a dropped stream by reconnecting and
           resuming from the last seen event (?after=<seq>).
  status   show one job's record, or the service-wide /stats summary
           (queue depth, per-state counts, cache hit/miss statistics,
           admission/supervision counters, health flags).

durability sub-commands:
  cache scrub    walk a result-cache directory re-verifying every entry's
                 artifact digests and every solve checkpoint; corrupt
                 entries are quarantined (never deleted), torn checkpoints
                 removed, stale staging swept.  Exits non-zero when this
                 run found corruption; the re-run after repair exits zero.
  cache verify   the same sweep, read-only (nothing quarantined/removed);
                 also served by the daemon as GET /cache/integrity.

robustness (PR 6):
  backpressure   serve --max-queue N bounds the number of queued jobs;
                 --class-limit CLASS=N bounds one priority class;
                 past --shed-ratio of capacity, background-class work is
                 shed early.  A refused submission gets HTTP 429 with a
                 Retry-After header; clients (ServiceClient, table1/figure11
                 --service, submit) retry with exponential backoff + jitter
                 and honour the hint.  Submission is content-hash
                 idempotent, so retries are always safe.
  supervision    dispatcher threads restart on crash; a job that kills its
                 worker --poison-threshold times is quarantined as
                 failed ("poisoned: ..."); journal/cache write failures
                 (ENOSPC, EIO) degrade the daemon (flagged in /healthz)
                 instead of crashing it.
  lifecycle      GET /healthz is liveness (always 200, degradation flags in
                 the body); GET /readyz is readiness (503 while draining or
                 saturated).  SIGTERM drains gracefully: admission stops,
                 running jobs finish within --drain-grace (leftovers are
                 requeued for the next epoch), the journal is compacted, and
                 SSE streams close with a "shutdown" event.

examples:
  rfic-layout serve --port 8080 --data-dir .rfic-service
  rfic-layout serve --max-queue 64 --class-limit background=8 --drain-grace 30
  rfic-layout submit buffer60 --flow manual --service http://127.0.0.1:8080 --wait
  rfic-layout status --service http://127.0.0.1:8080
  rfic-layout table1 --fast --service http://127.0.0.1:8080
"""


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="rfic-layout",
        description="RFIC layout generation with concurrent placement and "
        "fixed-length microstrip routing (DAC 2016 reproduction)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="run a layout flow on a netlist JSON")
    generate.add_argument("netlist", help="path to a netlist JSON file, or a benchmark circuit name")
    generate.add_argument(
        "--flow", choices=("pilp", "exact", "manual"), default="pilp",
        help="which flow to run (default: pilp)",
    )
    generate.add_argument("--output", "-o", default="layout.json", help="output layout JSON path")
    generate.add_argument("--svg", default=None, help="optional SVG output path")
    generate.add_argument("--time-limit", type=float, default=None, help="per-phase solver time limit (s)")
    generate.add_argument("--fast", action="store_true", help="use the fast (unit-test sized) configuration")
    generate.add_argument(
        "--seed", type=int, default=None,
        help="RNG seed for the flow heuristics (and, for benchmark circuit "
        "names, the generator's deterministic length jitter)",
    )

    batch = subparsers.add_parser(
        "batch", help="run many layout jobs in parallel with result caching"
    )
    batch.add_argument(
        "circuits", nargs="*", metavar="CIRCUIT",
        help="benchmark circuit names (default: all three, unless sweep "
        "options generate the workload instead)",
    )
    batch.add_argument(
        "--flow", choices=("pilp", "exact", "manual"), default="pilp",
        help="flow to run on every job (default: pilp)",
    )
    batch.add_argument("--variant", choices=("full", "reduced"), default=None)
    batch.add_argument(
        "--all-areas", action="store_true",
        help="also run each circuit's second (stress) area setting",
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: CPU count; 0 = run inline)",
    )
    batch.add_argument(
        "--cache-dir", default=".rfic-cache",
        help="content-addressed result cache directory (default: .rfic-cache)",
    )
    batch.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout in seconds (needs --workers >= 1)",
    )
    batch.add_argument("--time-limit", type=float, default=None, help="per-phase solver time limit (s)")
    batch.add_argument("--fast", action="store_true", help="use the fast configuration")
    batch.add_argument("--seed", type=int, default=None, help="RNG seed for the flow heuristics")
    batch.add_argument(
        "--sweep-frequencies", default=None, metavar="GHZ[,GHZ...]",
        help="add sweep scenarios at these operating frequencies",
    )
    batch.add_argument(
        "--sweep-stages", default=None, metavar="N[,N...]",
        help="stage counts of the sweep scenarios (default: 2)",
    )
    batch.add_argument(
        "--sweep-area-scales", default=None, metavar="S[,S...]",
        help="area scale factors of the sweep scenarios (default: 1.0)",
    )
    batch.add_argument(
        "--sweep-seeds", default=None, metavar="N[,N...]",
        help="generator jitter seeds of the sweep scenarios",
    )
    batch.add_argument("--quiet", action="store_true", help="suppress per-job progress lines")
    batch.add_argument(
        "--json", default=None,
        help="write the results to this JSON file: an object with the outcome "
        "'rows' plus a 'cache' footer (hit/miss/store counters)",
    )
    batch.add_argument(
        "--keep-going", action="store_true",
        help="keep running the remaining jobs after a failure or timeout "
        "(default: the first broken job cancels the rest); either way the "
        "exit status is non-zero when any job failed or timed out",
    )

    table1 = subparsers.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--circuit", choices=circuit_names(), default=None, help="restrict to one circuit")
    table1.add_argument("--variant", choices=("full", "reduced"), default=None)
    table1.add_argument("--no-manual", action="store_true", help="skip the manual-like baseline")
    table1.add_argument("--fast", action="store_true", help="use the fast configuration")
    table1.add_argument("--time-limit", type=float, default=None, help="per-phase solver time limit (s)")
    table1.add_argument("--json", default=None, help="write the rows to this JSON file")
    table1.add_argument(
        "--workers", type=int, default=None,
        help="run the flows through the batch runner with this many workers",
    )
    table1.add_argument(
        "--cache-dir", default=None,
        help="result cache directory for the batch runner (implies runner use)",
    )
    table1.add_argument(
        "--service", default=None, metavar="URL",
        help="run the flows through a remote rfic-layout service at this URL",
    )

    figure11 = subparsers.add_parser("figure11", help="regenerate the paper's Figure 11")
    figure11.add_argument("--circuit", choices=list(FIGURE11_CIRCUITS), default=None)
    figure11.add_argument("--variant", choices=("full", "reduced"), default=None)
    figure11.add_argument("--fast", action="store_true", help="use the fast configuration")
    figure11.add_argument("--time-limit", type=float, default=None, help="per-phase solver time limit (s)")
    figure11.add_argument("--json", default=None, help="write the series to this JSON file")
    figure11.add_argument(
        "--workers", type=int, default=None,
        help="run the flows through the batch runner with this many workers",
    )
    figure11.add_argument(
        "--cache-dir", default=None,
        help="result cache directory for the batch runner (implies runner use)",
    )
    figure11.add_argument(
        "--service", default=None, metavar="URL",
        help="run the flows through a remote rfic-layout service at this URL",
    )

    circuits = subparsers.add_parser("circuits", help="list the benchmark circuits")
    circuits.add_argument("--variant", choices=("full", "reduced"), default=None)

    serve = subparsers.add_parser(
        "serve", help="run the persistent layout-generation service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 = ephemeral; see --port-file)",
    )
    serve.add_argument(
        "--port-file", default=None,
        help="write the bound port to this file once listening (atomic write; "
        "pair with --port 0)",
    )
    serve.add_argument(
        "--data-dir", default=".rfic-service",
        help="durable state: journal.jsonl plus the default cache location "
        "(default: .rfic-service)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache (default: <data-dir>/cache)",
    )
    serve.add_argument(
        "--dispatchers", type=int, default=2,
        help="concurrent dispatcher threads (default: 2)",
    )
    serve.add_argument(
        "--inline", action="store_true",
        help="run jobs inside the dispatcher threads instead of per-job worker "
        "processes (faster for tiny jobs; no crash isolation or timeouts)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job timeout in seconds (needs worker processes: not with --inline)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=0, metavar="N",
        help="maximum queued jobs before submissions get 429 (0 = unbounded)",
    )
    serve.add_argument(
        "--class-limit", action="append", default=None, metavar="CLASS=N",
        help="per-priority-class queued-job limit (repeatable), e.g. "
        "--class-limit background=8",
    )
    serve.add_argument(
        "--shed-ratio", type=float, default=0.5, metavar="R",
        help="fraction of --max-queue past which background-class work is "
        "shed early (default: 0.5)",
    )
    serve.add_argument(
        "--poison-threshold", type=int, default=3, metavar="N",
        help="worker crashes before a job is quarantined as failed(poisoned) "
        "(default: 3)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="S",
        help="seconds a SIGTERM drain waits for running jobs before "
        "requeueing them (default: 30)",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress per-event log lines")
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log lines (one object per line, with "
        "trace IDs) instead of the human-readable event log",
    )
    serve.add_argument(
        "--log-file", default=None, metavar="PATH",
        help="also append the structured JSON log to this file "
        "(implies --log-json plumbing; stderr stream only with --log-json)",
    )
    serve.add_argument(
        "--slo-availability", type=float, default=None, metavar="R",
        help="availability objective as a fraction in (0, 1), e.g. 0.99 = "
        "at most 1%% of admissions may be refused over the SLO window "
        "(enables the SLO monitor, rfic_slo_* gauges and GET /slo)",
    )
    serve.add_argument(
        "--slo-latency-p95", type=float, default=None, metavar="S",
        help="latency objective: windowed p95 settle latency must stay "
        "under S seconds (enables the SLO monitor)",
    )
    serve.add_argument(
        "--slo-window", type=float, default=300.0, metavar="S",
        help="rolling window the SLOs are evaluated over (default: 300)",
    )

    submit = subparsers.add_parser(
        "submit", help="submit a job to a running service"
    )
    submit.add_argument(
        "netlist", help="path to a netlist JSON file, or a benchmark circuit name"
    )
    submit.add_argument(
        "--service", default="http://127.0.0.1:8080", metavar="URL",
        help="service base URL (default: http://127.0.0.1:8080)",
    )
    submit.add_argument(
        "--flow", choices=("pilp", "exact", "manual"), default="pilp",
        help="which flow to run (default: pilp)",
    )
    submit.add_argument("--fast", action="store_true", help="use the fast configuration")
    submit.add_argument("--time-limit", type=float, default=None, help="per-phase solver time limit (s)")
    submit.add_argument("--seed", type=int, default=None, help="RNG seed for the flow heuristics")
    submit.add_argument(
        "--priority", choices=("interactive", "batch", "background"), default=None,
        help="admission priority class (default: batch)",
    )
    submit.add_argument(
        "--client", default=None,
        help="client identity for the service's per-client fairness",
    )
    submit.add_argument(
        "--tag", default="",
        help="extra hash salt forcing a distinct job / cache entry",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job settles; exit non-zero unless it ends 'done'",
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="stream the job's Server-Sent Events until it settles (implies --wait)",
    )
    submit.add_argument(
        "--timeout", type=float, default=None,
        help="give up waiting/watching after this many seconds",
    )

    status = subparsers.add_parser("status", help="query a running service")
    status.add_argument(
        "key", nargs="?", default=None,
        help="job content hash (omit for the service-wide /stats summary)",
    )
    status.add_argument(
        "--service", default="http://127.0.0.1:8080", metavar="URL",
        help="service base URL (default: http://127.0.0.1:8080)",
    )
    status.add_argument("--json", action="store_true", help="print the raw JSON document")
    status.add_argument(
        "--watch", action="store_true",
        help="refresh the service-wide summary in place until interrupted "
        "(service summary only; ignored with a job key)",
    )
    status.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh period for --watch in seconds (default: 2)",
    )

    trace = subparsers.add_parser(
        "trace", help="print a job's span tree from a running service"
    )
    trace.add_argument(
        "key", help="job content hash (or the unique prefix the CLI prints)"
    )
    trace.add_argument(
        "--service", default="http://127.0.0.1:8080", metavar="URL",
        help="service base URL (default: http://127.0.0.1:8080)",
    )
    trace.add_argument("--json", action="store_true", help="print the raw JSON document")

    loadtest = subparsers.add_parser(
        "loadtest",
        help="drive a throwaway daemon with synthetic load and report "
        "latency percentiles, throughput, and exact counter reconciliation",
    )
    loadtest.add_argument(
        "--jobs", type=int, default=200, help="total submissions (default: 200)"
    )
    loadtest.add_argument(
        "--unique", type=int, default=40,
        help="distinct job hashes (cold solves) among them (default: 40)",
    )
    loadtest.add_argument(
        "--submitters", type=int, default=8,
        help="concurrent submitter threads (default: 8)",
    )
    loadtest.add_argument(
        "--watchers", type=int, default=20,
        help="concurrent SSE event watchers (default: 20)",
    )
    loadtest.add_argument(
        "--cached-wave", type=int, default=0, metavar="N",
        help="after the main wave settles, resubmit N guaranteed cache hits",
    )
    loadtest.add_argument(
        "--concurrency", type=int, default=2,
        help="daemon dispatcher threads (default: 2)",
    )
    loadtest.add_argument("--seed", type=int, default=0, help="workload seed")
    loadtest.add_argument(
        "--class-limits", default=None, metavar="CLASS=N[,CLASS=N]",
        help="per-class pending caps, e.g. background=4 (default: none)",
    )
    loadtest.add_argument(
        "--max-queue-depth", type=int, default=0,
        help="global queue bound; 0 = unbounded (default)",
    )
    loadtest.add_argument(
        "--data-dir", default=None,
        help="daemon data directory (default: a throwaway temp dir)",
    )
    loadtest.add_argument(
        "--snapshot", action="store_true",
        help="write the full report to BENCH_service_load.json "
        "(honours RFIC_BENCH_DIR)",
    )
    loadtest.add_argument("--json", action="store_true", help="print the raw report JSON")
    loadtest.add_argument(
        "--metrics-dump", default=None, metavar="PATH",
        help="write the final /metrics Prometheus exposition to this file",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect and repair a result-cache directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_scrub = cache_sub.add_parser(
        "scrub",
        help="walk every cache entry and checkpoint, re-verify artifact "
        "digests, quarantine corrupt entries and remove torn checkpoints; "
        "exits non-zero when corruption was found on this run (zero on a "
        "re-run after repair)",
    )
    cache_verify = cache_sub.add_parser(
        "verify",
        help="read-only integrity sweep: same checks as scrub but nothing "
        "is quarantined or removed; exits non-zero when the cache is dirty",
    )
    for cache_cmd in (cache_scrub, cache_verify):
        cache_cmd.add_argument(
            "--cache-dir", default=".rfic-cache",
            help="result cache directory (default: .rfic-cache)",
        )
        cache_cmd.add_argument(
            "--json", action="store_true",
            help="print the machine-readable report instead of the summary",
        )

    bench = subparsers.add_parser(
        "bench", help="operate on BENCH_*.json perf-trajectory snapshots"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_diff = bench_sub.add_parser(
        "diff",
        help="compare two snapshots with per-class tolerances; exits "
        "non-zero on any regression (counters exact, timings by ratio)",
    )
    bench_diff.add_argument(
        "baseline", help="baseline snapshot: a BENCH_*.json path or bare name"
    )
    bench_diff.add_argument(
        "current", help="candidate snapshot: a BENCH_*.json path or bare name"
    )
    bench_diff.add_argument(
        "--gate", action="store_true",
        help="CI mode: additionally fail when the snapshots are not "
        "comparable (different workload plan/config)",
    )
    bench_diff.add_argument(
        "--json", action="store_true",
        help="print the machine-readable diff document instead of the table",
    )
    bench_diff.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the machine-readable diff document to this file",
    )
    bench_diff.add_argument(
        "--show-ok", action="store_true",
        help="list every compared metric, not just warnings/regressions",
    )

    return parser


def _config_from_args(args: argparse.Namespace) -> PILPConfig:
    config = PILPConfig.fast() if getattr(args, "fast", False) else PILPConfig()
    time_limit = getattr(args, "time_limit", None)
    if time_limit is not None:
        config = config.with_updates(
            **{
                name: replace(getattr(config, name), time_limit=time_limit)
                for name in ("phase1", "phase2", "phase3", "exact")
            }
        )
    seed = getattr(args, "seed", None)
    if seed is not None:
        config = config.with_updates(random_seed=seed)
    return config


def _resolve_netlist_source(argument: str):
    """A netlist argument is either an existing file or a benchmark name.

    Returns a :class:`Path` for files and the circuit name string for
    benchmark circuits — callers that can stay lazy (``submit`` ships a
    :class:`GeneratorSpec` instead of a materialised netlist) dispatch on
    the type.
    """
    path = Path(argument)
    if path.exists():
        return path
    if argument in circuit_names():
        return argument
    raise SystemExit(
        f"error: {argument!r} is neither an existing netlist file nor one of the "
        f"benchmark circuits {circuit_names()}"
    )


def _load_netlist_argument(argument: str, seed: Optional[int] = None):
    source = _resolve_netlist_source(argument)
    if isinstance(source, Path):
        return load_netlist(source)
    return get_circuit(source, seed=seed).netlist


def _command_generate(args: argparse.Namespace) -> int:
    netlist = _load_netlist_argument(args.netlist, seed=args.seed)
    config = _config_from_args(args)
    if args.flow == "pilp":
        result = PILPLayoutGenerator(config).generate(netlist)
    elif args.flow == "exact":
        result = ExactLayoutGenerator(config).generate(netlist)
    else:
        result = ManualLikeFlow().generate(netlist)

    output = save_layout(result.layout, args.output)
    print(format_text_table([result.summary()], title=f"{args.flow} flow result"))
    print(f"layout written to {output}")
    if args.svg:
        svg_path = save_svg(result.layout, args.svg)
        print(f"SVG written to {svg_path}")
    return 0


def _runner_from_args(args: argparse.Namespace):
    """A runner when requested, else None.

    ``--service URL`` yields a :class:`~repro.service.client.RemoteRunner`
    targeting a running daemon; ``--workers`` / ``--cache-dir`` yield a
    local :class:`~repro.runner.pool.BatchRunner`.  The experiment
    harnesses consume either through the same interface.
    """
    service = getattr(args, "service", None)
    if service is not None:
        from repro.service import RemoteRunner

        return RemoteRunner(service, client="rfic-layout-cli")
    workers = getattr(args, "workers", None)
    cache_dir = getattr(args, "cache_dir", None)
    if workers is None and cache_dir is None:
        return None
    from repro.runner import BatchRunner

    return BatchRunner(
        cache_dir=cache_dir,
        workers=workers,
        job_timeout=getattr(args, "timeout", None),
        progress=None if getattr(args, "quiet", False) else _print_progress,
    )


def _print_progress(event) -> None:
    if event.kind in ("started", "cached", "completed", "failed", "timeout", "cancelled"):
        print(f"  [{event.kind:>9}] {event}", flush=True)


def _parse_grid(text: Optional[str], convert) -> Optional[list]:
    if text is None:
        return None
    try:
        return [convert(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SystemExit(f"error: bad sweep grid {text!r}: {exc}")


def _command_batch(args: argparse.Namespace) -> int:
    from repro.experiments.report import save_json as save_rows
    from repro.runner import (
        BatchRunner,
        GeneratorSpec,
        LayoutJob,
        SweepSpec,
        generate_sweep,
    )

    if args.workers == 0 and args.timeout is not None:
        raise SystemExit(
            "error: --timeout needs worker processes; an inline batch "
            "(--workers 0) cannot enforce it"
        )
    config = _config_from_args(args)
    frequencies = _parse_grid(args.sweep_frequencies, float)
    stages = _parse_grid(args.sweep_stages, int)
    scales = _parse_grid(args.sweep_area_scales, float)
    seeds = _parse_grid(args.sweep_seeds, int)
    sweep_requested = any(grid is not None for grid in (frequencies, stages, scales, seeds))

    jobs = []
    circuits = list(args.circuits)
    if not circuits and not sweep_requested:
        circuits = circuit_names()
    for name in circuits:
        if name not in circuit_names():
            raise SystemExit(
                f"error: unknown circuit {name!r}; available: {circuit_names()}"
            )
        from repro.circuits import area_settings

        areas = area_settings(name, args.variant)
        settings = areas if args.all_areas else areas[:1]
        for index, area in enumerate(settings):
            jobs.append(
                LayoutJob(
                    flow=args.flow,
                    generator=GeneratorSpec(
                        name, args.variant, area=(area.width, area.height), seed=args.seed
                    ),
                    config=config,
                    label=f"{name}[{index}]:{args.flow}",
                )
            )
    if sweep_requested:
        sweep = SweepSpec(
            frequencies_ghz=tuple(frequencies or (60.0,)),
            stage_counts=tuple(stages or (2,)),
            area_scales=tuple(scales or (1.0,)),
            seeds=tuple(seeds or (args.seed,)),
        )
        jobs.extend(generate_sweep(sweep, config=config, flow=args.flow))

    runner = BatchRunner(
        cache_dir=None if args.no_cache else args.cache_dir,
        workers=args.workers,
        job_timeout=args.timeout,
        progress=None if args.quiet else _print_progress,
    )
    print(f"running {len(jobs)} job(s) on {runner.workers} worker(s)...")

    # Without --keep-going the first failed/timed-out job cancels the rest
    # of the batch; cancelled jobs are reported but only genuinely broken
    # ones drive the exit status.
    stop_when = (
        None
        if args.keep_going
        else (lambda outcome: outcome.status in ("failed", "timeout"))
    )
    outcomes = runner.run(jobs, stop_when=stop_when)
    rows = [outcome.row() for outcome in outcomes]
    failures = sum(1 for outcome in outcomes if outcome.status in ("failed", "timeout"))

    print()
    print(format_text_table(rows, title="batch results"))
    stats = runner.cache_stats()
    if stats:
        print(
            f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
            f"{stats['stores']} store(s) (hit rate {stats['hit_rate']:.0%})"
        )
    if failures:
        print(f"{failures} job(s) failed or timed out")
    if args.json:
        save_rows(
            {
                "rows": rows,
                "cache": stats or None,
                "failures": failures,
                "keep_going": bool(args.keep_going),
            },
            args.json,
        )
        print(f"rows written to {args.json}")
    return 1 if failures else 0


def _command_table1(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    circuits = [args.circuit] if args.circuit else None
    result = run_table1(
        circuits=circuits,
        variant=args.variant,
        config=config,
        include_manual=not args.no_manual,
        runner=_runner_from_args(args),
    )
    print(result.to_text())
    print()
    print(f"paper's qualitative shape holds: {result.shape_holds()}")
    if args.json:
        save_json(result.as_dicts(), args.json)
        print(f"rows written to {args.json}")
    return 0


def _command_figure11(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    circuits = [args.circuit] if args.circuit else None
    results = run_figure11(
        circuits=circuits,
        variant=args.variant,
        config=config,
        runner=_runner_from_args(args),
    )
    for result in results:
        print(result.to_text())
        print(f"shape holds (p-ilp gain >= manual gain): {result.shape_holds()}")
        print()
    if args.json:
        save_json([result.series_dict() for result in results], args.json)
        print(f"series written to {args.json}")
    return 0


def _print_service_event(event) -> None:
    detail = f" {event['detail']}" if event.get("detail") else ""
    runtime = f" {event['runtime']:.1f}s" if event.get("runtime") else ""
    print(f"  [{event['kind']:>8}] {event['label']}{runtime}{detail}", flush=True)


def _parse_class_limits(pairs: Optional[List[str]]) -> Optional[dict]:
    if not pairs:
        return None
    limits = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if name not in ("interactive", "batch", "background") or not value.isdigit():
            raise SystemExit(
                f"error: bad --class-limit {pair!r} (expected CLASS=N with CLASS "
                f"one of interactive/batch/background)"
            )
        limits[name] = int(value)
    return limits


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.obs.logging import LOG
    from repro.service import LayoutService

    if args.inline and args.job_timeout is not None:
        raise SystemExit(
            "error: --job-timeout needs worker processes; an --inline daemon "
            "cannot enforce it"
        )

    log_json = args.log_json or args.log_file is not None
    if log_json:
        LOG.configure(path=args.log_file)
    slo = None
    if args.slo_availability is not None or args.slo_latency_p95 is not None:
        from repro.errors import ConfigurationError
        from repro.obs.slo import SLOConfig

        try:
            slo = SLOConfig(
                availability_objective=args.slo_availability,
                latency_p95_target_s=args.slo_latency_p95,
                window_s=args.slo_window,
            )
        except ConfigurationError as exc:
            raise SystemExit(f"error: {exc}")
    service = LayoutService(
        data_dir=args.data_dir,
        cache_dir=args.cache_dir,
        concurrency=args.dispatchers,
        inline=args.inline,
        job_timeout=args.job_timeout,
        max_queue_depth=args.max_queue,
        class_limits=_parse_class_limits(args.class_limit),
        background_shed_ratio=args.shed_ratio,
        poison_threshold=args.poison_threshold,
        slo=slo,
    )
    service.bind(host=args.host, port=args.port)

    def _drain(signum, frame) -> None:
        # The handler runs in the main thread, which is blocked inside
        # serve_forever(); server.shutdown() must come from another thread
        # or it deadlocks.  drain() ends with exactly that shutdown, which
        # unblocks serve_forever and lets main exit normally.
        print("SIGTERM: draining (admission stopped)...", flush=True)
        threading.Thread(
            target=service.drain,
            kwargs={"timeout": args.drain_grace},
            daemon=True,
            name="drain",
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    service.start()
    if args.port_file:
        service.write_port_file(args.port_file)
    if not args.quiet and not log_json:
        # With --log-json the scheduler already emits structured lines for
        # every lifecycle transition; a second firehose would duplicate it.
        subscription = service.scheduler.bus.subscribe(None, replay=False)

        def _pump() -> None:
            while True:
                event = subscription.get(timeout=1.0)
                if event is not None:
                    _print_service_event(event)

        threading.Thread(target=_pump, daemon=True, name="event-log").start()
    replayed = service.scheduler.stats()["replayed_from_journal"]
    print(
        f"rfic-layout service listening on http://{args.host}:{service.port} "
        f"({args.dispatchers} dispatcher(s), "
        f"{'inline' if args.inline else 'process'} execution)",
        flush=True,
    )
    print(
        f"journal: {service.queue.journal_path} "
        f"({replayed} pending job(s) replayed); cache: {service.cache.root}",
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down...", flush=True)
    finally:
        service.shutdown()
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.runner import GeneratorSpec, LayoutJob
    from repro.service import ServiceClient

    config = _config_from_args(args)
    source = _resolve_netlist_source(args.netlist)
    if isinstance(source, Path):
        job = LayoutJob(
            flow=args.flow, netlist=load_netlist(source), config=config, tag=args.tag
        )
    else:
        # Stay lazy: the tiny generator recipe travels, the daemon builds
        # the netlist (and hashes the resolved form, as always).
        job = LayoutJob(
            flow=args.flow,
            generator=GeneratorSpec(source, seed=args.seed),
            config=config,
            tag=args.tag,
        )
    from repro.service import ServiceError

    client = ServiceClient(args.service)
    try:
        response = client.submit_job(job, priority=args.priority, client=args.client)
        key = response["key"]
        print(
            f"job {key[:12]} ({response['label']}): {response['disposition']} "
            f"[state: {response['state']}]"
        )
        final_event = None
        if args.watch:
            # iter_events reconnects dropped streams itself, resuming from
            # the last seen seq; a "shutdown" event (daemon draining) ends
            # the stream without settling the job.
            for event in client.iter_events(key, timeout=args.timeout):
                _print_service_event(event)
                if event["kind"] in ("done", "failed", "timeout", "cancelled"):
                    final_event = event
        if args.wait or args.watch:
            if final_event is not None:
                state = str(final_event.get("state") or final_event["kind"])
                try:
                    record = client.status(key)
                except ServiceError:
                    # The stream already told us the outcome; a daemon that
                    # went away since must not turn it into a crash.
                    record = {"state": state, "error": final_event.get("detail")}
            else:
                record = client.wait(key, timeout=args.timeout)
                state = str(record["state"])
            if record.get("summary"):
                print(format_text_table([record["summary"]], title="job result"))
            if state != "done":
                print(f"job settled as {state!r}: {record.get('error') or 'no detail'}")
                return 1
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}")
    return 0


def _command_status(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.service)
    try:
        if args.watch and not args.key:
            interval = max(0.2, args.interval)
            try:
                while True:
                    print("\x1b[2J\x1b[H", end="")  # clear + home
                    _print_status(client, args)
                    print(
                        f"  (refreshing every {interval:g}s — Ctrl-C to stop)",
                        flush=True,
                    )
                    _time.sleep(interval)
            except KeyboardInterrupt:
                return 0
        return _print_status(client, args)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}")


def _print_status(client, args: argparse.Namespace) -> int:
    if args.key:
        record = client.status(args.key)
        if args.json:
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0
        print(f"job {record['key'][:12]} ({record['label']})")
        for field in ("state", "priority", "client", "runtime", "attach_count", "error"):
            if record.get(field) not in (None, "", 0):
                print(f"  {field}: {record[field]}")
        if record.get("summary"):
            print(format_text_table([record["summary"]], title="summary"))
        return 0
    stats = client.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"service at {client.base_url} (up {stats['uptime_s']}s)")
    jobs = stats["jobs"]
    print(
        f"  jobs: {stats['queue_depth']} queued, {jobs['running']} running, "
        f"{jobs['done']} done, {jobs['failed']} failed, "
        f"{jobs['timeout']} timed out, {jobs['cancelled']} cancelled"
    )
    print(
        f"  work: {stats['solved']} solved, {stats['served_from_cache']} served "
        f"from cache, {stats['attached']} attached, "
        f"{stats['replayed_from_journal']} replayed from journal"
    )
    cache = stats["cache"]
    print(
        f"  cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
        f"{cache['stores']} store(s) (hit rate {cache['hit_rate']:.0%})"
    )
    admission = stats.get("admission") or {}
    if admission.get("max_queue_depth"):
        print(
            f"  admission: max queue {admission['max_queue_depth']}, "
            f"{admission.get('rejected', 0)} rejected, "
            f"{admission.get('shed', 0)} shed"
        )
    supervision = stats.get("supervision") or {}
    if supervision:
        print(
            f"  supervision: {supervision.get('dispatcher_restarts', 0)} dispatcher "
            f"restart(s), {supervision.get('crash_retries', 0)} crash retry(ies), "
            f"{supervision.get('poisoned', 0)} poisoned"
        )
    slo = stats.get("slo") or {}
    if slo.get("configured"):
        parts = []
        availability = slo.get("availability")
        if availability:
            parts.append(
                f"availability {availability['ratio']:.1%} "
                f"(objective {availability['objective']:.1%}, "
                f"burn {availability['burn_rate']:.2f}x)"
            )
        latency = slo.get("latency")
        if latency:
            bounds = latency.get("p95_bounds_s")
            if not bounds:
                shown = "no samples"
            elif bounds[1] is not None:
                shown = f"<= {bounds[1]:g}s"
            else:
                shown = f"> {bounds[0]:g}s"
            parts.append(f"p95 {shown} (target {latency['target_p95_s']:g}s)")
        state = "ok" if slo.get("ok") else "VIOLATED"
        joined = "; ".join(parts) if parts else "no objectives"
        print(f"  slo: {state} over {slo.get('window_s', 0):g}s window — {joined}")
    health = stats.get("health") or {}
    if health:
        flags = []
        if health.get("draining"):
            flags.append("draining")
        if health.get("journal_degraded"):
            flags.append("journal degraded")
        if not health.get("cache_writable", True):
            flags.append("cache unwritable")
        suffix = f" ({', '.join(flags)})" if flags else ""
        print(f"  health: {health.get('status', 'unknown')}{suffix}")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.service)
    try:
        document = client.trace(args.key)
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    trace_id = document.get("trace") or "-"
    print(
        f"job {document['key'][:12]} ({document.get('label') or '?'}) "
        f"trace {trace_id} [state: {document['state']}]"
    )
    total = document.get("total_s")
    span_sum = document.get("span_sum_s")
    if total is not None:
        print(f"  total {total:.3f}s (top-level spans sum to {span_sum:.3f}s)")
    if document.get("truncated"):
        print("  (truncated: spans synthesized from the journal)")
    spans = document.get("spans") or []
    if not spans:
        print("  no spans recorded yet")
        return 0
    for span in spans:
        indent = "    " if span.get("parent") else "  "
        flags = " [truncated]" if span.get("truncated") else ""
        detail = f"  {span['detail']}" if span.get("detail") else ""
        print(
            f"{indent}{span['name']:<16} {span['duration_s'] * 1000:>10.2f}ms"
            f"{detail}{flags}"
        )
    return 0


def _command_circuits(args: argparse.Namespace) -> int:
    rows = []
    for name in circuit_names():
        circuit = get_circuit(name, args.variant)
        rows.append(circuit.summary())
    print(format_text_table(rows, title="Reconstructed benchmark circuits"))
    return 0


def _format_latency(summary: dict) -> str:
    if not summary.get("count"):
        return "no samples"
    return (
        f"p50 {summary['p50'] * 1000:.1f}ms  p95 {summary['p95'] * 1000:.1f}ms  "
        f"p99 {summary['p99'] * 1000:.1f}ms  max {summary['max'] * 1000:.1f}ms "
        f"({summary['count']} samples)"
    )


def _command_loadtest(args: argparse.Namespace) -> int:
    import tempfile

    from repro.loadgen import LoadTestConfig, WorkloadSpec, run_load_test
    from repro.loadgen import write_snapshot

    spec = WorkloadSpec(
        jobs=args.jobs,
        unique_jobs=args.unique,
        submitters=args.submitters,
        watchers=args.watchers,
        cached_wave=args.cached_wave,
        seed=args.seed,
    )
    limits = _parse_class_limits(
        args.class_limits.split(",") if args.class_limits else None
    )
    config = LoadTestConfig(
        concurrency=args.concurrency,
        max_queue_depth=args.max_queue_depth,
        class_limits=limits,
    )
    if args.data_dir is not None:
        report = run_load_test(spec, data_dir=args.data_dir, config=config)
    else:
        with tempfile.TemporaryDirectory(prefix="rfic-loadtest-") as scratch:
            report = run_load_test(
                spec, data_dir=Path(scratch) / "service", config=config
            )
    data = report.to_snapshot_data()
    if args.snapshot:
        path = write_snapshot("service_load", data)
        print(f"snapshot written to {path}", flush=True)
    if args.metrics_dump:
        if report.metrics_text:
            Path(args.metrics_dump).write_text(
                report.metrics_text, encoding="utf-8"
            )
            print(f"metrics exposition written to {args.metrics_dump}", flush=True)
        else:
            print("no /metrics exposition captured; nothing dumped", flush=True)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0 if report.ok else 1
    throughput = data["throughput"]
    sse = data["sse"]
    print(
        f"load test: {report.submitted} submissions "
        f"({spec.jobs} main + {spec.cached_wave} cached wave) in "
        f"{report.wall_s:.1f}s — {spec.submitters} submitters, "
        f"{spec.watchers} watchers, {config.concurrency} dispatchers"
    )
    print(f"  dispositions: {dict(sorted(report.dispositions.items()))}")
    print(
        f"  refused: {report.rejected_429} (shed rate "
        f"{data['shed_rate']:.1%}), errors: {len(report.submit_errors)}"
    )
    print(f"  admission: {_format_latency(data['admission_latency_s'])}")
    print(f"  settle:    {_format_latency(data['settle_latency_s'])}")
    print(
        f"  throughput: {throughput['settled_jobs_per_s']} settled/s "
        f"({throughput['solved_per_dispatcher_per_s']} solved/s per dispatcher); "
        f"peak queue depth {data['queue_depth']['peak']}"
    )
    print(
        f"  sse: {sse['events']} events to {sse['watchers']} watchers, "
        f"live lag {_format_latency(sse['live_lag_s'])}"
    )
    checks = data["reconciliation"]
    bad = {name: check for name, check in checks.items() if not check["ok"]}
    if bad:
        print(f"  RECONCILIATION FAILED: {bad}")
        return 1
    print(f"  reconciliation: {len(checks)} exact checks OK, zero lost jobs")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from repro.runner.cache import ResultCache

    root = Path(args.cache_dir)
    if not root.exists():
        raise SystemExit(f"error: no cache directory at {root}")
    cache = ResultCache(root)
    repair = args.cache_command == "scrub"
    report = cache.scrub(repair=repair)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        mode = "scrub" if repair else "verify"
        print(
            f"cache {mode}: {report['entries_scanned']} entr(ies) scanned, "
            f"{report['entries_ok']} ok, {report['entries_corrupt']} corrupt"
            + (f" ({report['entries_quarantined']} quarantined)" if repair else "")
        )
        print(
            f"  checkpoints: {report['checkpoints_scanned']} scanned, "
            f"{report['checkpoints_corrupt']} corrupt"
            + (f" ({report['checkpoints_removed']} removed)" if repair else "")
        )
        if report["staging_swept"]:
            print(f"  staging: {report['staging_swept']} stale dir(s) swept")
        if report["errors"]:
            print(f"  errors: {report['errors']} entr(ies) unreadable")
        if report["quarantine_entries"]:
            print(
                f"  quarantine holds {report['quarantine_entries']} entr(ies) "
                f"under {cache.root / 'quarantine'}"
            )
        for key in report["corrupt_keys"]:
            print(f"  corrupt: {key}")
        print(f"  verdict: {'clean' if report['clean'] else 'DIRTY'}")
    # Non-zero exactly when corruption was found on *this* run: a scrub
    # repairs the cache but still reports what it had to repair; the
    # re-run after repair exits zero.
    return 0 if report["clean"] else 1


def _command_bench(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.loadgen import diff_snapshot_files

    try:
        report = diff_snapshot_files(args.baseline, args.current)
    except ConfigurationError as exc:
        # Covers missing files, foreign schemas, and CorruptSnapshotError
        # (whose message already says how to restore the file).
        raise SystemExit(f"error: {exc}")
    verdict = report.gate_verdict(gate=args.gate)
    doc = report.to_dict()
    doc["gate"] = args.gate
    doc["gate_verdict"] = verdict
    blob = json.dumps(doc, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(blob + "\n", encoding="utf-8")
    if args.json:
        print(blob)
    else:
        print(report.to_text(show_ok=args.show_ok))
        if verdict == "regression" and report.verdict != "regression":
            print(
                "gate: FAILED — plan mismatch, the snapshots measured "
                "different experiments (re-baseline or fix the workload)"
            )
    return 1 if verdict == "regression" else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``rfic-layout`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "batch": _command_batch,
        "table1": _command_table1,
        "figure11": _command_figure11,
        "circuits": _command_circuits,
        "serve": _command_serve,
        "submit": _command_submit,
        "status": _command_status,
        "trace": _command_trace,
        "loadtest": _command_loadtest,
        "cache": _command_cache,
        "bench": _command_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
