"""HTTP front end of the layout service (stdlib ``http.server`` only).

Endpoints
---------
``POST /jobs``
    Submit a job document or a ``{"sweep": ...}`` grid (see
    :mod:`repro.service.documents`).  Optional top-level ``"priority"``
    (``interactive``/``batch``/``background``) and ``"client"`` fields
    feed admission.  Response: the submitted record(s) with their
    dispositions; ``202`` when new work was queued, ``200`` otherwise.
``GET /jobs``
    Known records (journal order).  ``?state=<state>`` filters by job
    state; ``?limit=<n>`` bounds the response to the *newest* n matches
    (default 500 — after a long load run the full record list is
    unbounded; ``limit=0`` asks for everything).  The response carries
    ``total`` (matching records before the bound) so a truncated listing
    is detectable.
``GET /jobs/{hash}``
    One record: state, timings, metrics summary, error.
``GET /jobs/{hash}/layout.json`` / ``GET /jobs/{hash}/layout.svg``
    The settled layout, straight from the result cache / rendered through
    the SVG exporter.
``GET /jobs/{hash}/events``
    Server-Sent Events: the job's retained history is replayed, then live
    events stream until a terminal event (``done``/``failed``/``timeout``/
    ``cancelled``) or a drain's ``shutdown`` event closes the stream.
    Each event carries an ``id:`` line (its bus ``seq``); a reconnecting
    client passes ``?after=<seq>`` (or the standard ``Last-Event-ID``
    header) to skip the history it has already seen.  Only the *replay* is
    filtered — live events always flow, because ``seq`` restarts each
    daemon epoch.  Event schema: see :mod:`repro.service.scheduler`.
``GET /jobs/{hash}/trace``
    The job's span tree: admission, queue wait, dispatch, worker fork,
    per-solve-phase, DRC and cache-put spans with wall-clock start stamps
    and durations.  Jobs from previous daemon epochs get a tree
    synthesized from journal timestamps, every span marked ``truncated``.
``GET /stats``
    Queue depth and per-state counts, scheduler counters, admission /
    supervision counters, cache hit/miss statistics, journal health.
    Derived from the same registry snapshot as ``GET /metrics``.
``GET /metrics``
    Prometheus text exposition (version 0.0.4) of the metrics registry:
    job/admission counters, queue gauges and latency/stage histograms,
    plus the ``rfic_slo_*`` gauges when objectives are configured.
``GET /slo``
    Rolling-window objective verdicts (availability ratio, error-budget
    burn rate, windowed p95 bounds) derived from the same registry
    snapshot as ``/stats``/``/metrics``; ``{"configured": false}`` when
    no objectives are set.
``GET /cache/integrity``
    Read-only cache verification (``ResultCache.verify``): every entry's
    artifact digests are re-checked and every stored checkpoint is
    parsed, but nothing is quarantined or deleted.  ``200`` with the
    report when the cache is clean, ``503`` when corruption is present —
    repair with ``rfic-layout cache scrub``.
``GET /healthz``
    Liveness: always ``200``; the body carries degradation flags
    (journal/cache write failures) and supervision counters.
``GET /readyz``
    Readiness: ``200`` when accepting work, ``503`` while draining or
    hard-saturated.

Overload responses: a submission the scheduler refuses for capacity gets
``429`` with a ``Retry-After`` header (seconds, from the runtime EMA);
one refused because the daemon is draining gets ``503``.  A request
whose propagated ``X-Deadline-S`` budget is already spent gets ``504``
without doing any work.

The server is a :class:`ThreadingHTTPServer`: one thread per request, so
any number of SSE streams can idle while submissions keep flowing.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.layout.export_json import load_layout
from repro.layout.export_svg import layout_to_svg
from repro.obs.metrics import render_prometheus
from repro.obs.trace import TRACE_HEADER
from repro.service.documents import DEFAULT_CLIENT, expand_submission
from repro.service.queue import JobRecord
from repro.service.scheduler import (
    TERMINAL_EVENT_KINDS,
    LayoutScheduler,
    QueueSaturated,
    ServiceDraining,
)

#: Seconds between SSE keep-alive comments while a job is idle.
_SSE_HEARTBEAT = 5.0

#: Event kinds that end an SSE stream: per-job terminals plus the drain
#: broadcast.
_STREAM_END_KINDS = TERMINAL_EVENT_KINDS + ("shutdown",)

#: Records returned by ``GET /jobs`` when the client gives no ``limit``.
#: The journal is append-only, so after a long load run the unbounded
#: listing would serialize every record ever settled.
DEFAULT_JOBS_LIMIT = 500


class LayoutHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the scheduler for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, scheduler: LayoutScheduler, quiet: bool = True):
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.quiet = quiet


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: LayoutHTTPServer

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(
        self,
        payload: object,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8") + b"\n"
        self._send_bytes(body, "application/json; charset=utf-8", status, headers)

    def _send_bytes(
        self,
        body: bytes,
        content_type: str,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Headers and body leave in one write.  Written separately, the body
        # of a keep-alive response waits out Nagle's algorithm plus the
        # client's delayed ACK (about 40 ms per request).
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    @property
    def scheduler(self) -> LayoutScheduler:
        return self.server.scheduler

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            raw_path, _, query = self.path.partition("?")
            path = raw_path.rstrip("/") or "/"
            if path == "/stats":
                self._send_json(self.scheduler.stats())
            elif path == "/slo":
                self._send_json(self.scheduler.slo_document())
            elif path == "/metrics":
                text = render_prometheus(self.scheduler.metrics_snapshot())
                self._send_bytes(
                    text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/":
                self._send_json({"service": "rfic-layout", "ok": True})
            elif path == "/healthz":
                # Liveness: a degraded daemon is still alive — the status
                # code never changes, only the body.
                self._send_json(dict(self.scheduler.health(), service="rfic-layout"))
            elif path == "/readyz":
                health = self.scheduler.health()
                ready = not self.scheduler.draining and not self.scheduler.saturated()
                self._send_json(
                    dict(health, ready=ready), status=200 if ready else 503
                )
            elif path == "/cache/integrity":
                # Read-only verification sweep: digests checked, nothing
                # quarantined or removed.  ``200`` when clean, ``503`` when
                # corruption is present (a monitoring-friendly signal; run
                # ``rfic-layout cache scrub`` to repair).
                report = self.scheduler.cache.verify()
                self._send_json(report, status=200 if report["clean"] else 503)
            elif path == "/jobs":
                self._get_jobs(query)
            elif path.startswith("/jobs/"):
                self._get_job(path[len("/jobs/") :], query)
            else:
                self._send_error_json(404, f"no such resource: {path}")
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass
        except Exception as exc:  # noqa: BLE001 - request boundary
            self._safe_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path != "/jobs":
                self._send_error_json(404, f"no such resource: {path}")
                return
            self._post_jobs()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - request boundary
            self._safe_error(exc)

    def _safe_error(self, exc: Exception) -> None:
        try:
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        except Exception:  # headers already sent (e.g. mid-SSE)
            pass

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #

    def _get_jobs(self, query: str) -> None:
        params = urllib.parse.parse_qs(query)
        state = params.get("state", [None])[0]
        raw_limit = params.get("limit", [None])[0]
        limit = DEFAULT_JOBS_LIMIT
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                self._send_error_json(400, f"bad limit: {raw_limit!r}")
                return
        try:
            records, total = self.scheduler.queue.select(state=state, limit=limit)
        except ConfigurationError as exc:
            self._send_error_json(400, str(exc))
            return
        self._send_json(
            {
                "jobs": [r.status_dict() for r in records],
                "total": total,
                "state": state,
                "limit": limit,
            }
        )

    def _post_jobs(self) -> None:
        deadline = self.headers.get("X-Deadline-S")
        if deadline is not None:
            try:
                if float(deadline) <= 0:
                    self._send_error_json(
                        504, "client deadline already exhausted; not admitting"
                    )
                    return
            except ValueError:
                self._send_error_json(400, f"bad X-Deadline-S: {deadline!r}")
                return
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            self._send_error_json(400, "missing request body")
            return
        try:
            submission = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"bad JSON body: {exc}")
            return
        if not isinstance(submission, dict):
            self._send_error_json(400, "submission must be a JSON object")
            return
        priority = submission.pop("priority", None)
        client = str(submission.pop("client", DEFAULT_CLIENT))
        trace_header = self.headers.get(TRACE_HEADER)
        results: List[Tuple[JobRecord, str]] = []
        saturated: Optional[QueueSaturated] = None
        try:
            documents = expand_submission(submission)
            for index, document in enumerate(documents):
                # A sweep shares the caller's trace ID as a prefix; each
                # expanded job still gets a distinct ID so its spans don't
                # interleave with its siblings'.
                trace_id = trace_header
                if trace_header and index:
                    trace_id = f"{trace_header}-{index}"
                try:
                    results.append(
                        self.scheduler.submit(
                            document,
                            priority=priority,
                            client=client,
                            trace_id=trace_id,
                        )
                    )
                except QueueSaturated as exc:
                    # Sweeps admit what fits; the remainder is reported so
                    # the client can resubmit it after Retry-After.
                    saturated = exc
                    break
        except ServiceDraining as exc:
            self._send_json({"error": str(exc), "draining": True}, status=503)
            return
        except (ConfigurationError, ReproError, KeyError, ValueError) as exc:
            self._send_error_json(400, str(exc))
            return
        rows = [
            dict(record.status_dict(), disposition=disposition)
            for record, disposition in results
        ]
        if saturated is not None:
            retry_after = f"{saturated.retry_after:.0f}"
            self._send_json(
                {
                    "error": str(saturated),
                    "shed": saturated.shed,
                    "retry_after_s": saturated.retry_after,
                    "admitted": len(rows),
                    "jobs": rows,
                },
                status=429,
                headers={"Retry-After": retry_after},
            )
            return
        queued_any = any(d in ("queued", "requeued") for _, d in results)
        status = 202 if queued_any else 200
        if "sweep" in submission or len(rows) != 1:
            self._send_json({"jobs": rows}, status=status)
        else:
            self._send_json(rows[0], status=status)

    def _get_job(self, rest: str, query: str = "") -> None:
        parts = rest.split("/")
        # Accept the full content hash or the unique prefix the CLI prints.
        record = self.scheduler.queue.find(parts[0])
        if record is None:
            self._send_error_json(404, f"unknown job {parts[0]!r}")
            return
        key = record.key
        if len(parts) == 1:
            self._send_json(record.status_dict())
        elif parts[1:] == ["events"]:
            self._stream_events(key, after=self._resume_cursor(query))
        elif parts[1:] == ["trace"]:
            self._send_json(self.scheduler.trace_document(record))
        elif parts[1:] == ["layout.json"]:
            entry = self._entry_or_404(key, record.state)
            if entry is not None:
                self._send_bytes(
                    entry.layout_path.read_bytes(), "application/json; charset=utf-8"
                )
        elif parts[1:] == ["layout.svg"]:
            entry = self._entry_or_404(key, record.state)
            if entry is not None:
                layout = load_layout(entry.layout_path)
                svg = layout_to_svg(layout, title=f"{record.label} [{key[:12]}]")
                self._send_bytes(svg.encode("utf-8"), "image/svg+xml; charset=utf-8")
        else:
            self._send_error_json(404, f"no such resource: /jobs/{rest}")

    def _entry_or_404(self, key: str, state: str):
        entry = self.scheduler.cache.peek_key(key)
        if entry is None:
            self._send_error_json(
                404 if state == "done" else 409,
                f"job {key[:12]} has no stored layout (state: {state})",
            )
            return None
        return entry

    def _resume_cursor(self, query: str) -> int:
        """The reconnect cursor: ``?after=seq`` wins over ``Last-Event-ID``."""
        params = urllib.parse.parse_qs(query)
        raw = (params.get("after") or [None])[0]
        if raw is None:
            raw = self.headers.get("Last-Event-ID")
        try:
            return max(0, int(raw)) if raw is not None else 0
        except ValueError:
            return 0

    def _stream_events(self, key: str, after: int = 0) -> None:
        subscription = self.scheduler.bus.subscribe(key, replay=True, after=after)
        self.close_connection = True
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream; charset=utf-8")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            record = self.scheduler.queue.get(key)
            already_settled = record is not None and record.terminal
            while True:
                # A job that settled in a previous daemon epoch (or whose
                # history was evicted) will never publish again: drain the
                # replayed history quickly, then synthesize its terminal
                # event from the journaled record and close the stream.
                event = subscription.get(
                    timeout=0.2 if already_settled else _SSE_HEARTBEAT
                )
                if event is None:
                    if already_settled:
                        self._write_sse(_synthetic_terminal_event(key, record))
                        break
                    self.wfile.write(b": keep-alive\n\n")
                    self.wfile.flush()
                    continue
                self._write_sse(event)
                if event["kind"] in _STREAM_END_KINDS:
                    break
        finally:
            subscription.close()

    def _write_sse(self, event: Dict[str, object]) -> None:
        payload = json.dumps(event, sort_keys=True)
        self.wfile.write(
            f"id: {event['seq']}\nevent: {event['kind']}\ndata: {payload}\n\n".encode(
                "utf-8"
            )
        )
        self.wfile.flush()


def _synthetic_terminal_event(key: str, record: JobRecord) -> Dict[str, object]:
    """A terminal SSE event reconstructed from a journaled record.

    ``seq`` 0 marks it as synthesized (live bus events start at 1).
    """
    return {
        "seq": 0,
        "ts": record.settled_unix or 0.0,
        "kind": record.state,  # terminal states are terminal kinds
        "key": key,
        "label": record.label,
        "state": record.state,
        "detail": record.error or "",
        "runtime": round(record.runtime, 3),
        "trace": record.trace_id,
    }


def make_server(
    scheduler: LayoutScheduler,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> LayoutHTTPServer:
    """Bind (but do not start) the service's HTTP server.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address``.
    """
    return LayoutHTTPServer((host, port), scheduler, quiet=quiet)
