"""``service_cold`` and ``service_cached``: the daemon under two clients.

The daemon runs as ``python -m repro.cli serve --port 0 --port-file`` in
its own process, so the load generator never shares its interpreter
lock.  Two client threads, at most one connection each, are the only
load; telemetry (``/stats``, ``/metrics``, ``/jobs/{hash}/trace``
and the per-job ``profile`` in each cache entry's ``metrics.json``) is
read after the measured window, so tracing costs the window nothing.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import mean, percentile, vmhwm_mb

#: Distinct jobs in one ``service_cold`` burst, and the tail percentile
#: reported for it: the highest with at least ten samples beyond it.  A
#: 100-job burst (p90) took up to 80 s on a busy 2-core machine, too long
#: for the benchmark's 70 runs to fit their time budget.
COLD_JOBS = 60
COLD_TAIL = 80
#: Distinct jobs settled at set-up for ``service_cached``: two rounds of
#: the two dispatchers, so solving stays a small share of its set-up time.
CACHED_JOBS = 4
CLIENTS = 2
DISPATCHERS = 2
#: Daemon boots per run; set-up time is their median.
BOOTS = 3
#: Seconds between two dashboard scrapes (``/stats`` + ``/metrics``), and
#: the length of the windows whose medians ``service_cached`` reports: a
#: second of contention from another process then moves one window, not
#: the result.
SCRAPE_INTERVAL_S = 1.0
WINDOW_S = 1.0
SETTLE_TIMEOUT_S = 150.0
PRIORITY_WEIGHTS = {"interactive": 0.2, "batch": 0.5, "background": 0.3}


class Connection:
    """HTTP requests to the daemon, one TCP connection per request.

    That is what the program's own ``ServiceClient`` (``urllib``) does, so
    the measured latency is the one its users see.
    """

    def __init__(self, port: int) -> None:
        self.port = port

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def json(self, method: str, path: str, body: Optional[bytes] = None):
        status, payload = self.request(method, path, body)
        return status, json.loads(payload.decode("utf-8")) if payload else None


class Daemon:
    """A ``serve`` subprocess with its own data directory."""

    def __init__(self, root: Path, state_dir: Path, env: Dict[str, str], name: str) -> None:
        self.root = root
        self.data_dir = state_dir / name
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Boot and wait for ``/readyz`` 200; returns the boot time."""
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir.mkdir(parents=True)
        port_file = self.data_dir / "port"
        started = time.perf_counter()
        with open(self.data_dir / "serve.log", "wb") as log_file:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0", "--port-file", str(port_file),
                    "--data-dir", str(self.data_dir / "data"),
                    "--dispatchers", str(DISPATCHERS), "--quiet", "--drain-grace", "5",
                ],
                cwd=self.root, env=self.env,
                stdout=subprocess.DEVNULL, stderr=log_file,
            )
        deadline = started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}: {self.log_tail()}")
            if port_file.exists():
                self.port = int(port_file.read_text().strip())
                try:
                    status, _ = Connection(self.port).request("GET", "/readyz")
                    if status == 200:
                        return time.perf_counter() - started
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("daemon did not become ready")

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def entry_profile(self, key: str) -> Optional[dict]:
        path = self.data_dir / "data" / "cache" / key[:2] / key[2:] / "metrics.json"
        return json.loads(path.read_text()).get("profile")

    def log_tail(self) -> str:
        try:
            return (self.data_dir / "serve.log").read_text()[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def boot(root: Path, state_dir: Path, env: Dict[str, str]) -> Tuple[Daemon, List[float]]:
    """Boot ``BOOTS`` daemons one after another; keep the last running.

    Returns the running daemon and every boot time.
    """
    samples = []
    for index in range(BOOTS):
        daemon = Daemon(root, state_dir, env, f"daemon-{index}")
        try:
            samples.append(daemon.start())
        except BaseException:
            daemon.stop()
            raise
        if index < BOOTS - 1:
            daemon.stop()
    return daemon, samples


def job_bodies(prefix: str, seed: int, count: int) -> List[Tuple[str, bytes]]:
    """``count`` distinct tiny P-ILP jobs: (content hash, POST body)."""
    from repro.core.config import PILPConfig
    from repro.loadgen.workload import tiny_workload_netlist
    from repro.runner.jobs import LayoutJob
    from repro.service.documents import job_to_document

    rng = random.Random(seed)
    netlist = tiny_workload_netlist()
    config = PILPConfig.fast()
    bodies = []
    for index in range(count):
        job = LayoutJob(
            flow="pilp", netlist=netlist, config=config,
            label=f"{prefix}-{index}", tag=f"{prefix}/{seed}/{index}",
        )
        document = job_to_document(job)
        document["priority"] = rng.choices(
            list(PRIORITY_WEIGHTS), weights=list(PRIORITY_WEIGHTS.values())
        )[0]
        document["client"] = f"{prefix}-client-{index % CLIENTS}"
        bodies.append((job.content_hash, json.dumps(document).encode("utf-8")))
    return bodies


def submit_burst(port: int, bodies, timings: Dict[str, list]) -> Dict[str, dict]:
    """POST every body back to back from ``CLIENTS`` threads.

    Returns ``key -> {sent_unix, status, disposition}``.
    """
    sent: Dict[str, dict] = {}
    lock = threading.Lock()
    errors: List[BaseException] = []

    def client(index: int) -> None:
        conn = Connection(port)
        try:
            for key, body in bodies[index::CLIENTS]:
                sent_unix = time.time()
                start = time.perf_counter()
                status, reply = conn.json("POST", "/jobs", body)
                elapsed = time.perf_counter() - start
                with lock:
                    timings["submit"].append(elapsed)
                    sent[key] = {
                        "sent_unix": sent_unix,
                        "status": status,
                        "disposition": (reply or {}).get("disposition"),
                    }
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return sent


def wait_settled(conn: Connection, count: int, timings: Dict[str, list]) -> dict:
    """Poll ``/stats`` until ``count`` jobs have settled (or time runs out)."""
    deadline = time.perf_counter() + SETTLE_TIMEOUT_S
    while True:
        start = time.perf_counter()
        _, stats = conn.json("GET", "/stats")
        timings["stats"].append(time.perf_counter() - start)
        settled = stats["solved"] + stats["failures"]
        if (settled >= count and stats["queue_depth"] == 0 and stats["running"] == 0) or (
            time.perf_counter() > deadline
        ):
            return stats
        time.sleep(0.2)


def job_records(conn: Connection, keys) -> Dict[str, dict]:
    records = {}
    for key in keys:
        status, record = conn.json("GET", f"/jobs/{key}")
        records[key] = record if status == 200 else {"state": f"http {status}"}
    return records


def run_cold(root: Path, state_dir: Path, env: Dict[str, str], seed: int,
             trace: bool, mini: bool) -> Dict[str, object]:
    """One burst of ``COLD_JOBS`` jobs; the burst, not ``--seconds``, sets its length."""
    daemon, boots = boot(root, state_dir, env)
    try:
        count = 6 if mini else COLD_JOBS
        bodies = job_bodies("cold", seed, count)
        timings: Dict[str, list] = {"submit": [], "stats": []}
        conn = Connection(daemon.port)
        _, before = conn.json("GET", "/stats")
        sent = submit_burst(daemon.port, bodies, timings)
        stats = wait_settled(conn, count, timings)
        records = job_records(conn, sent)
        failures = cold_failures(sent, records)
        ok = [key for key in sent if not failures[key]]
        latencies = [records[k]["settled_unix"] - sent[k]["sent_unix"] for k in ok]
        window = min(v["sent_unix"] for v in sent.values())
        makespan = max(r.get("settled_unix") or 0.0 for r in records.values()) - window
        result = {
            "attempted": len(sent),
            "failed": len(sent) - len(ok),
            "errors": sorted({msg for msg in failures.values() if msg})
            + stats_errors(stats, len(sent)),
            "end_to_end": {
                "setup_s": statistics.median(boots),
                "peak_rss_mb": daemon.peak_rss_mb(),
                "latency_p50_s": percentile(latencies, 50) if latencies else 0.0,
                "latency_tail_s": percentile(latencies, COLD_TAIL) if latencies else 0.0,
                "throughput_per_s": len(ok) / makespan,
                "bends_per_layout": mean(records[k]["summary"]["total_bends"] for k in ok),
            },
            "named": {
                "job_latency_s.p50": percentile(latencies, 50) if latencies else 0.0,
                f"job_latency_s.p{COLD_TAIL}": percentile(latencies, COLD_TAIL) if latencies else 0.0,
                "settled_jobs_per_s": len(ok) / makespan,
                "failed_ratio": (len(sent) - len(ok)) / len(sent),
            },
            "provenance": {"dispatchers": DISPATCHERS, "burst_jobs": count,
                           "job_config": "PILPConfig.fast()", "boot_samples_s": boots},
        }
        if trace:
            result["layers"] = service_layers(
                conn, daemon, before, stats, list(sent), window, timings,
                [records[k].get("summary") or {} for k in ok],
            )
        return result
    finally:
        daemon.stop()


def cold_failures(sent, records) -> Dict[str, str]:
    """Per-job failure reason ('' when the job is correct)."""
    reasons = {}
    for key, submission in sent.items():
        record = records.get(key) or {}
        summary = record.get("summary") or {}
        if submission["status"] == 429:
            reasons[key] = "rejected with 429"
        elif submission["disposition"] != "queued":
            reasons[key] = f"disposition {submission['disposition']!r}, expected 'queued'"
        elif record.get("state") != "done":
            reasons[key] = f"job settled {record.get('state')!r}"
        elif not summary.get("drc_clean"):
            reasons[key] = "layout not DRC-clean"
        else:
            reasons[key] = ""
    return reasons


def stats_errors(stats: dict, expected_solved: int) -> List[str]:
    errors = []
    if stats["solved"] != expected_solved:
        errors.append(f"/stats solved={stats['solved']}, expected {expected_solved}")
    if stats["failures"]:
        errors.append(f"/stats failures={stats['failures']}")
    if stats["cache"]["quarantined"]:
        errors.append(f"cache quarantined {stats['cache']['quarantined']} entries")
    return errors


def settle_jobs(port: int, bodies) -> Tuple[Dict[str, str], Dict[str, dict]]:
    """Submit and settle jobs at set-up; returns artifact SHA-256s and records."""
    conn = Connection(port)
    submit_burst(port, bodies, {"submit": []})
    wait_settled(conn, len(bodies), {"stats": []})
    records = job_records(conn, [key for key, _ in bodies])
    digests = {}
    for key, _ in bodies:
        status, payload = conn.request("GET", f"/jobs/{key}/layout.json")
        if status != 200 or records[key].get("state") != "done":
            raise RuntimeError(f"set-up job {key[:12]} did not settle: {records[key]}")
        digests[key] = hashlib.sha256(payload).hexdigest()
    return digests, records


def run_cached(root: Path, state_dir: Path, env: Dict[str, str], seed: int, seconds: float,
               trace: bool, mini: bool) -> Dict[str, object]:
    """Closed-loop reads of settled jobs for ``seconds``.

    Latency percentiles and the request rate are medians over one-second
    windows of the run.
    """
    daemon, boots = boot(root, state_dir, env)
    try:
        settle_started = time.perf_counter()
        bodies = job_bodies("cached", seed, 2 if mini else CACHED_JOBS)
        digests, records = settle_jobs(daemon.port, bodies)
        settle_s = time.perf_counter() - settle_started
        conn = Connection(daemon.port)
        _, before = conn.json("GET", "/stats")
        timings: Dict[str, list] = {"submit": [], "layout_get": [], "request": [],
                                    "done": [], "stats": [], "metrics": []}
        failures: List[str] = []
        lock = threading.Lock()
        window = time.time()
        deadline = time.perf_counter() + seconds

        def client(index: int) -> None:
            rng = random.Random(seed * 1000 + index)
            client_conn = Connection(daemon.port)
            local = {name: [] for name in timings}
            bad: List[str] = []
            next_scrape = time.perf_counter()
            try:
                while time.perf_counter() < deadline:
                    key, body = bodies[rng.randrange(len(bodies))]
                    start = time.perf_counter()
                    status, reply = client_conn.json("POST", "/jobs", body)
                    posted = time.perf_counter()
                    get_status, payload = client_conn.request("GET", f"/jobs/{key}/layout.json")
                    done = time.perf_counter()
                    local["submit"].append(posted - start)
                    local["layout_get"].append(done - posted)
                    local["request"].append(done - start)
                    local["done"].append(done)
                    disposition = (reply or {}).get("disposition")
                    if status != 200 or disposition != "cached":
                        bad.append(f"POST answered {status} {disposition!r}, expected cached")
                    elif get_status != 200:
                        bad.append(f"layout GET answered {get_status}")
                    elif hashlib.sha256(payload).hexdigest() != digests[key]:
                        bad.append("layout artifact SHA-256 changed since set-up")
                    else:
                        bad.append("")
                    if index == 0 and done >= next_scrape:
                        next_scrape = done + SCRAPE_INTERVAL_S
                        for name, path in (("stats", "/stats"), ("metrics", "/metrics")):
                            start = time.perf_counter()
                            client_conn.request("GET", path)
                            local[name].append(time.perf_counter() - start)
            finally:
                with lock:
                    for name, values in local.items():
                        timings[name].extend(values)
                    failures.extend(bad)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        _, stats = conn.json("GET", "/stats")
        requests = timings["request"]
        p50, p95, rate = window_medians(timings["done"], requests, deadline - seconds, seconds)
        errors = sorted({msg for msg in failures if msg}) + stats_errors(stats, len(bodies))
        failed = sum(1 for msg in failures if msg)
        result = {
            "attempted": len(requests),
            "failed": failed,
            "errors": errors,
            "end_to_end": {
                "setup_s": statistics.median(boots) + settle_s,
                "peak_rss_mb": daemon.peak_rss_mb(),
                "latency_p50_s": p50,
                "latency_tail_s": p95,
                "throughput_per_s": rate,
                "bends_per_layout": mean(r["summary"]["total_bends"] for r in records.values()),
            },
            "named": {
                "request_latency_s.p50": p50,
                "request_latency_s.p95": p95,
                "requests_per_s": rate,
                "failed_ratio": failed / max(1, len(requests)),
            },
            "provenance": {"dispatchers": DISPATCHERS, "cached_jobs": len(bodies),
                           "job_config": "PILPConfig.fast()", "boot_samples_s": boots,
                           "settle_s": settle_s},
        }
        if trace:
            result["layers"] = service_layers(
                conn, daemon, before, stats, [key for key, _ in bodies], window, timings, [],
            )
        return result
    finally:
        daemon.stop()


def window_medians(done, latencies, started: float, seconds: float) -> Tuple[float, float, float]:
    """Medians over ``WINDOW_S`` windows of p50 latency, p95 latency and rate.

    A request belongs to the window it completed in; a window's rate spans
    its first to its last completion.
    """
    windows: List[List[Tuple[float, float]]] = [[] for _ in range(max(1, int(seconds / WINDOW_S)))]
    for finished, latency in sorted(zip(done, latencies)):
        index = int((finished - started) / WINDOW_S)
        if index < len(windows):
            windows[index].append((finished, latency))
    rows = []
    for window in windows:
        if len(window) > 1:
            values = [latency for _, latency in window]
            rate = (len(window) - 1) / (window[-1][0] - window[0][0])
            rows.append((percentile(values, 50), percentile(values, 95), rate))
    p50, p95, rate = (statistics.median(column) for column in zip(*rows))
    return p50, p95, rate


def _delta_mean(before: dict, after: dict) -> float:
    count = after["count"] - before["count"]
    return (after["sum_s"] - before["sum_s"]) / count if count else 0.0


def service_layers(conn, daemon, before, after, keys, window_unix, timings, summaries):
    """Per-layer numbers from the daemon's telemetry, for the measured window."""
    stages_before = before["metrics"]["stages_s"]
    stages_after = after["metrics"]["stages_s"]
    settled = after["solved"] - before["solved"]
    spans: Dict[str, List[float]] = {}
    for key in keys:
        _, document = conn.json("GET", f"/jobs/{key}/trace")
        for span in document["spans"]:
            if span["start_unix"] >= window_unix:
                spans.setdefault(span["name"], []).append(span["duration_s"])
    profiles = []
    if settled:
        profiles = [daemon.entry_profile(key) or {} for key in keys]
    solve_by_phase: Dict[str, float] = {}
    for profile in profiles:
        for phase in profile.get("phases", []):
            name = str(phase.get("phase", "")).split("[")[0]
            solve_by_phase[name] = solve_by_phase.get(name, 0.0) + float(phase.get("solver_s", 0.0))
    jobs = max(1, len(profiles))

    def per_job(field: str) -> float:
        return sum(
            float(phase.get(field, 0.0)) for p in profiles for phase in p.get("phases", [])
        ) / jobs

    phases_per_job = sum(len(p.get("phases", [])) for p in profiles) / jobs
    if not timings.get("metrics"):
        start = time.perf_counter()
        conn.request("GET", "/metrics")
        timings["metrics"] = [time.perf_counter() - start]
    layers = {
        "service.queue_wait.s": _delta_mean(stages_before["queue_wait"], stages_after["queue_wait"]),
        "service.solve.s": _delta_mean(stages_before["solve"], stages_after["solve"]),
        "service.overhead.s": _delta_mean(stages_before["overhead"], stages_after["overhead"]),
        "runner.fork.s": mean(spans.get("worker_fork", [])),
        "runner.cache_put.s": mean(spans.get("cache_put", [])),
        "service.admission.s": mean(spans.get("admission", [])),
        "service.dispatch.s": mean(spans.get("dispatch", [])),
        "service.settle.s": mean(spans.get("settle", [])),
        "runner.checkpoint_writes": (
            after["resumes"]["checkpoint_writes"] - before["resumes"]["checkpoint_writes"]
        ) / settled if settled else 0.0,
        "http.submit.s.p50": percentile(timings["submit"], 50),
        "http.submit.s.p95": percentile(timings["submit"], 95),
        "http.layout_get.s.p50": percentile(timings.get("layout_get", []), 50),
        "http.layout_get.s.p95": percentile(timings.get("layout_get", []), 95),
        "cache.serve.s": _delta_mean(
            before["metrics"]["cache_serve_s"], after["metrics"]["cache_serve_s"]
        ),
        "cache.hits": after["cache"]["hits"] - before["cache"]["hits"],
        "http.stats.s": statistics.median(timings["stats"]),
        "http.metrics.s": statistics.median(timings["metrics"]),
        "ilp.solve.s": per_job("solver_s"),
        "ilp.solve.calls": phases_per_job,
        "ilp.solve.nodes": per_job("solver_iterations"),
        "core.model_build.s": per_job("model_build_s"),
        "core.model_build.calls": phases_per_job,
        "core.phase3.iterations": sum(
            1 for p in profiles for phase in p.get("phases", [])
            if str(phase.get("phase", "")).startswith("phase3")
        ) / jobs,
        "layout.drc.s": sum(float(p.get("drc_s", 0.0)) for p in profiles) / jobs,
        "layout.metrics.s": sum(float(p.get("metrics_s", 0.0)) for p in profiles) / jobs,
        "layout.max_length_error_um": max(
            (float(s.get("max_abs_length_error_um", 0.0)) for s in summaries), default=0.0
        ),
    }
    for phase in ("phase1", "phase2", "phase3", "exact"):
        layers[f"ilp.solve.s.{phase}"] = solve_by_phase.get(phase, 0.0) / jobs
    return layers
