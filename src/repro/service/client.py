"""Python client of the layout service (stdlib ``urllib`` only).

:class:`ServiceClient` is the low-level HTTP wrapper — submit documents,
poll status, stream Server-Sent Events, fetch layouts.

Resilience (PR 6): every JSON request runs under a :class:`RetryPolicy`
(exponential backoff with deterministic jitter) because the API is safe
to retry — submission is content-hash idempotent, so re-POSTing a job
the server already admitted merely *attaches* to it.  ``429``/``503``
responses and unreachable-server errors are transient
(:class:`ServiceUnavailableError`, honouring ``Retry-After``); other
4xx/5xx fail immediately.  Repeated *network* failures trip a circuit
breaker that fails calls fast (:class:`CircuitOpenError`) until a probe
succeeds, and a caller-supplied deadline caps the whole retry dance and
is propagated to the server as ``X-Deadline-S``.  Dropped SSE streams
reconnect and resume from the last seen ``seq``.

:class:`RemoteRunner` adapts a client to the
:class:`~repro.runner.pool.BatchRunner` interface the experiment harnesses
consume (``run(jobs) -> List[JobOutcome]``), so ``rfic-layout table1
--service http://host:port`` regenerates the paper's table against a
remote daemon exactly the way ``--workers/--cache-dir`` runs it against a
local pool: submissions dedup against the service's queue, results come
back from its content-addressed cache.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.trace import TRACE_HEADER
from repro.runner.jobs import LayoutJob
from repro.runner.pool import JobOutcome
from repro.service.documents import job_to_document
from repro.service.queue import TERMINAL_STATES

#: SSE kinds after which the stream will never carry another event for
#: the job (mirrors the server's stream-ending set).
_STREAM_END_KINDS = ("done", "failed", "timeout", "cancelled", "shutdown")


class ServiceError(ReproError):
    """The service rejected a request or is unreachable."""


class ServiceUnavailableError(ServiceError):
    """A *transient* refusal: 429/503, or the server is unreachable.

    Retrying is appropriate; ``retry_after`` carries the server's hint
    (seconds) when it sent one, and ``network`` distinguishes a dead
    server (feeds the circuit breaker) from a live-but-saturated one
    (does not — a full queue is not an outage).
    """

    def __init__(
        self, message: str, retry_after: Optional[float] = None, network: bool = False
    ):
        super().__init__(message)
        self.retry_after = retry_after
        self.network = network


class CircuitOpenError(ServiceError):
    """Failing fast: the circuit breaker is open after repeated failures."""


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter for idempotent requests."""

    attempts: int = 4  #: total tries (1 = no retry)
    base_delay: float = 0.2
    max_delay: float = 5.0
    jitter: float = 0.5  #: fraction of the delay randomised away

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        if self.jitter <= 0:
            return raw
        spread = (rng or random).uniform(-self.jitter, self.jitter)
        return max(0.0, raw * (1.0 + spread))


class _CircuitBreaker:
    """Classic closed → open → half-open breaker over network failures."""

    def __init__(self, threshold: int = 5, reset_timeout: float = 10.0) -> None:
        self.threshold = max(1, threshold)
        self.reset_timeout = reset_timeout
        self._failures = 0
        self._opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if time.monotonic() - self._opened_at >= self.reset_timeout:
            return "half-open"
        return "open"

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed.

        ``half-open`` lets exactly the caller through as the probe; its
        success closes the breaker, its failure re-opens the full window.
        """
        if self.state == "open":
            remaining = self.reset_timeout - (time.monotonic() - self._opened_at)
            raise CircuitOpenError(
                f"circuit breaker open after {self._failures} consecutive "
                f"failures; retry in {max(0.0, remaining):.1f}s"
            )

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._failures += 1
        if self._failures >= self.threshold:
            self._opened_at = time.monotonic()


class ServiceClient:
    """Talk to a running ``rfic-layout serve`` daemon."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 10.0,
        retry_seed: Optional[int] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self._breaker = _CircuitBreaker(breaker_threshold, breaker_reset)
        self._rng = random.Random(retry_seed)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    @property
    def breaker_state(self) -> str:
        return self._breaker.state

    def _request(
        self,
        path: str,
        payload: Optional[dict] = None,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        """One HTTP attempt (no retries — that is :meth:`_json`'s job)."""
        url = f"{self.base_url}{path}"
        data = None
        extra = headers
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if deadline_s is not None:
            headers["X-Deadline-S"] = f"{deadline_s:.3f}"
        if extra:
            headers.update(extra)
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            return urllib.request.urlopen(request, timeout=timeout or self.timeout)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 - best-effort error body
                pass
            message = f"{path}: HTTP {exc.code}" + (f" — {detail}" if detail else "")
            if exc.code in (429, 503):
                retry_after = None
                raw = exc.headers.get("Retry-After") if exc.headers else None
                if raw is not None:
                    try:
                        retry_after = float(raw)
                    except ValueError:
                        pass
                raise ServiceUnavailableError(message, retry_after=retry_after) from None
            raise ServiceError(message) from None
        except urllib.error.URLError as exc:
            raise ServiceUnavailableError(
                f"service unreachable at {url}: {exc.reason}", network=True
            ) from None
        except (http.client.HTTPException, ConnectionError, TimeoutError) as exc:
            # urllib wraps connect-phase errors in URLError but lets
            # response-phase deaths (RemoteDisconnected, resets) through raw.
            raise ServiceUnavailableError(
                f"connection to {url} dropped: {exc}", network=True
            ) from None

    def _json(
        self,
        path: str,
        payload: Optional[dict] = None,
        deadline: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> dict:
        """A JSON request with retries, breaker, and deadline propagation.

        Every call through here is idempotent (submission dedups on the
        content hash), so transient failures are retried with backoff.
        ``deadline`` (seconds) caps the total time across all attempts
        and rides to the server as ``X-Deadline-S`` so it can refuse work
        whose requester has already given up.
        """
        cutoff = time.monotonic() + deadline if deadline is not None else None
        attempt = 0
        while True:
            attempt += 1
            remaining = None
            if cutoff is not None:
                remaining = cutoff - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"{path}: deadline of {deadline:.1f}s exhausted after "
                        f"{attempt - 1} attempt(s)"
                    )
            self._breaker.check()
            try:
                timeout = self.timeout
                if remaining is not None:
                    timeout = max(0.05, min(timeout, remaining))
                with self._request(
                    path, payload, timeout=timeout, deadline_s=remaining,
                    headers=headers,
                ) as response:
                    result = json.loads(response.read().decode("utf-8"))
            except (
                ServiceUnavailableError,
                ConnectionError,
                TimeoutError,
                http.client.HTTPException,
            ) as raised:
                # A response that dies mid-read is as transient as a
                # refused connection; normalise and retry either way.
                exc = (
                    raised
                    if isinstance(raised, ServiceUnavailableError)
                    else ServiceUnavailableError(
                        f"{path}: connection dropped mid-response: {raised}",
                        network=True,
                    )
                )
                if exc.network:
                    self._breaker.record_failure()
                if attempt >= self.retry.attempts:
                    raise exc from None
                delay = self.retry.delay(attempt, self._rng)
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                if cutoff is not None:
                    delay = min(delay, max(0.0, cutoff - time.monotonic()))
                time.sleep(delay)
                continue
            self._breaker.record_success()
            return result

    # ------------------------------------------------------------------ #
    # API surface
    # ------------------------------------------------------------------ #

    def health(self) -> Dict[str, object]:
        return self._json("/healthz")

    def submit_document(
        self,
        document: Dict[str, object],
        priority: Optional[str] = None,
        client: Optional[str] = None,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """POST one submission; returns the record (or ``{"jobs": [...]}``).

        ``trace_id`` rides the ``X-Trace-Id`` header so the server stitches
        this submission into a caller-chosen trace instead of minting one.
        """
        payload = dict(document)
        if priority is not None:
            payload["priority"] = priority
        if client is not None:
            payload["client"] = client
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        return self._json("/jobs", payload, deadline=deadline, headers=headers)

    def submit_job(
        self,
        job: LayoutJob,
        priority: Optional[str] = None,
        client: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        return self.submit_document(job_to_document(job), priority, client, deadline)

    def status(self, key: str) -> Dict[str, object]:
        return self._json(f"/jobs/{key}")

    def jobs_page(
        self, state: Optional[str] = None, limit: Optional[int] = None
    ) -> Dict[str, object]:
        """One ``GET /jobs`` page: ``{"jobs": [...], "total": n, ...}``.

        ``total`` counts every matching record, so ``total > len(jobs)``
        means the listing was truncated to the newest ``limit`` records.
        """
        params = {}
        if state is not None:
            params["state"] = state
        if limit is not None:
            params["limit"] = str(limit)
        path = "/jobs"
        if params:
            path += "?" + urllib.parse.urlencode(params)
        return self._json(path)

    def jobs(
        self, state: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, object]]:
        return self.jobs_page(state, limit)["jobs"]

    def stats(self) -> Dict[str, object]:
        return self._json("/stats")

    def slo(self) -> Dict[str, object]:
        """The rolling-window objective verdicts (``GET /slo``)."""
        return self._json("/slo")

    def metrics_text(self) -> str:
        """Raw ``GET /metrics`` Prometheus text exposition."""
        with self._request("/metrics") as response:
            return response.read().decode("utf-8")

    def trace(self, key: str) -> Dict[str, object]:
        """The job's span tree (``GET /jobs/{hash}/trace``)."""
        return self._json(f"/jobs/{key}/trace")

    def layout_document(self, key: str) -> Dict[str, object]:
        return self._json(f"/jobs/{key}/layout.json")

    def iter_events(
        self, key: str, timeout: Optional[float] = None, reconnect: bool = True
    ) -> Iterator[Dict[str, object]]:
        """Yield the job's SSE events until its stream terminates.

        ``timeout`` is an *overall* deadline, not a per-read socket
        timeout: the server's keep-alive heartbeats would otherwise reset
        a socket timeout forever.  The deadline is checked on every
        received line (heartbeats included, which arrive at least every
        few seconds), so it fires promptly even while the job idles.

        A dropped connection (daemon restarted, proxy hiccup) is
        **reconnected** up to the retry budget, resuming with
        ``?after=<last seen seq>`` so already-replayed history is
        skipped.  Only the history replay is cursor-filtered — the server
        never filters live events, because seq restarts each daemon
        epoch.  Terminal events (and the drain broadcast ``shutdown``)
        end iteration.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        last_seq = 0
        failures = 0
        while True:
            path = f"/jobs/{key}/events"
            if last_seq > 0:
                path += f"?after={last_seq}"
            try:
                with self._request(path, timeout=self.timeout) as stream:
                    for raw in stream:
                        if deadline is not None and time.monotonic() > deadline:
                            raise ServiceError(
                                f"timed out after {timeout:.1f}s streaming events "
                                f"for job {key[:12]}"
                            )
                        line = raw.decode("utf-8").strip()
                        if not line.startswith("data:"):
                            continue
                        event = json.loads(line[len("data:") :].strip())
                        failures = 0  # the stream is demonstrably alive
                        if int(event.get("seq", 0)) > 0:
                            last_seq = int(event["seq"])
                        yield event
                        if event.get("kind") in _STREAM_END_KINDS:
                            return
                # Server closed the stream without a terminal event (it is
                # shutting down, or history was evicted mid-stream).
                raise ServiceUnavailableError(
                    f"event stream for job {key[:12]} ended without a "
                    f"terminal event",
                    network=True,
                )
            except (
                ServiceUnavailableError,
                ConnectionError,
                TimeoutError,
                http.client.HTTPException,
            ) as exc:
                failures += 1
                if not reconnect or failures >= self.retry.attempts:
                    if isinstance(exc, ServiceUnavailableError):
                        raise
                    raise ServiceError(
                        f"event stream for job {key[:12]} stalled: {exc}"
                    ) from None
                delay = self.retry.delay(failures, self._rng)
                if deadline is not None:
                    if time.monotonic() + delay > deadline:
                        raise ServiceError(
                            f"timed out after {timeout:.1f}s streaming events for "
                            f"job {key[:12]}"
                        ) from None
                time.sleep(delay)

    def wait(
        self, key: str, timeout: Optional[float] = None, poll: float = 0.25
    ) -> Dict[str, object]:
        """Poll until the job reaches a terminal state; return its record."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            record = self.status(key)
            if record["state"] in TERMINAL_STATES:
                return record
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout:.1f}s waiting for job {key[:12]} "
                    f"(state: {record['state']})"
                )
            time.sleep(poll)


class RemoteRunner:
    """BatchRunner-shaped adapter over a :class:`ServiceClient`.

    ``run`` submits every job, waits for settlement, then materialises
    :class:`JobOutcome` objects whose ``layout_doc`` is fetched from the
    service — ``outcome.flow_result()`` works exactly as with a local
    runner (metrics and DRC are recomputed from the layout).

    Submissions inherit the client's retry/backoff/breaker behaviour;
    ``job_timeout`` doubles as the submission deadline propagated to the
    server, so a saturated daemon either admits the batch within the
    budget or the run fails with the server's 429 explanation.
    """

    def __init__(
        self,
        service: "ServiceClient | str",
        client: str = "remote-runner",
        priority: Optional[str] = None,
        job_timeout: Optional[float] = None,
    ) -> None:
        self.client = (
            service if isinstance(service, ServiceClient) else ServiceClient(service)
        )
        self.client_name = client
        self.priority = priority
        self.job_timeout = job_timeout

    @property
    def workers(self) -> str:
        return f"service:{self.client.base_url}"

    def run(self, jobs: Sequence[LayoutJob], stop_when=None) -> List[JobOutcome]:
        """Submit a batch to the service and wait for every outcome.

        ``stop_when`` is accepted for interface compatibility but ignored:
        cancellation is the daemon's call, not the remote client's.
        """
        submissions = []
        for job in jobs:
            response = self.client.submit_job(
                job,
                priority=self.priority,
                client=self.client_name,
                deadline=self.job_timeout,
            )
            submissions.append((response["key"], response.get("disposition", "")))
        outcomes = []
        for job, (key, disposition) in zip(jobs, submissions):
            record = self.client.wait(key, timeout=self.job_timeout)
            outcomes.append(self._outcome(job, key, record, disposition))
        return outcomes

    def run_one(self, job: LayoutJob) -> JobOutcome:
        return self.run([job])[0]

    def _outcome(
        self,
        job: LayoutJob,
        key: str,
        record: Dict[str, object],
        disposition: str = "",
    ) -> JobOutcome:
        state = record["state"]
        summary = record.get("summary") or {}
        if state == "done":
            # "cached" when either the service short-circuited this
            # submission (disposition) or the original run itself was a
            # pool-level cache hit (summary["served"]).
            cached = (
                disposition in ("cached", "done")
                or summary.get("served") == "cache"
            )
            layout_doc = self.client.layout_document(key)
            return JobOutcome(
                job=job,
                status="cached" if cached else "completed",
                summary=dict(summary),
                runtime=float(record.get("runtime") or 0.0),
                layout_doc=layout_doc,
            )
        status = state if state in ("failed", "timeout", "cancelled") else "failed"
        return JobOutcome(
            job=job,
            status=status,
            runtime=float(record.get("runtime") or 0.0),
            error=record.get("error") or f"remote job settled as {state!r}",
        )

    def cache_stats(self) -> Dict[str, object]:
        """The remote cache's hit/miss counters (from ``GET /stats``)."""
        return dict(self.client.stats().get("cache", {}))
