"""Admission and dispatch: priorities, fairness, dedup, cache short-circuit.

:class:`LayoutScheduler` sits between the durable :class:`JobQueue` and the
PR 3 :class:`~repro.runner.pool.BatchRunner`:

* **Admission** (:meth:`submit`) computes the job's content hash, then
  short-circuits against the result cache (an already-solved job settles
  as ``done`` without touching the pool) and dedups in flight (a second
  submission of an identical job *attaches* to the running one instead of
  re-solving — both submitters observe the same record and event stream).
* **Dispatch** runs on ``concurrency`` threads sharing one re-entrant
  runner.  The next job is chosen by priority class first
  (``interactive`` < ``batch`` < ``background``), then per-client
  fairness (the least-recently-served client goes first, so one client
  flooding the queue cannot starve the others), then FIFO.
* **Settlement** is exactly-once per content hash, journaled through the
  queue; every transition is published on the :class:`EventBus` that feeds
  the HTTP API's Server-Sent Events.

Event schema (also the SSE ``data:`` payload)::

    {"seq": 17, "ts": 1721998800.5, "kind": "running", "key": "ab12...",
     "label": "buffer60:manual", "state": "running", "detail": "",
     "runtime": 0.0, "trace": "9f2c40d1a7b3e806"}

The ``trace`` field is additive: it carries the job's request trace ID
("" for epoch-level events such as ``shutdown``).  ``progress`` events
additionally carry ``elapsed_s`` — seconds since the job entered
``running`` — so watchers can detect stalled solves without polling.
Their ``detail`` is the pool event kind, suffixed with the pool's own
detail when it has one: a solve continuing from a stored checkpoint
emits ``"resumed:<phase>"`` (e.g. ``"resumed:phase2"``) before its first
``started`` progress.

``kind`` is one of ``queued | running | progress | done | failed |
timeout | cancelled``; the last four are terminal and close any SSE
stream subscribed to that job.  A draining daemon additionally emits a
keyless ``shutdown`` event to every open stream.

Robustness layer (PR 6)
-----------------------
* **Backpressure**: a bounded queue (``max_queue_depth``, optional
  per-priority-class limits) rejects fresh work with
  :class:`QueueSaturated` — surfaced as HTTP 429 with a ``Retry-After``
  computed from the recent runtime EMA.  Past ``background_shed_ratio``
  of capacity, ``background``-class submissions are shed early so bulk
  traffic cannot crowd out interactive users.
* **Supervision**: dispatcher threads run under a supervisor that
  restarts them on any escaped exception (counted in
  ``dispatcher_restarts``).  A job whose worker crashes is retried, and
  quarantined as ``failed`` with a ``poisoned:`` error prefix once it
  has burned ``poison_threshold`` attempts.
* **Drain**: :meth:`LayoutScheduler.drain` stops admission, lets running
  jobs finish (requeueing any leftovers), compacts the journal, and
  broadcasts ``shutdown`` so SSE streams close cleanly.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults import FAULTS
from repro.obs.logging import LOG
from repro.obs.slo import SLOConfig
from repro.obs.trace import CLOCK, Span, TraceStore, mint_trace_id
from repro.runner.cache import ResultCache
from repro.runner.jobs import LayoutJob
from repro.runner.pool import BatchRunner, JobOutcome, ProgressEvent
from repro.service.documents import (
    job_from_document,
    priority_rank,
    validate_priority,
)
from repro.service.queue import JOB_STATES, JobQueue, JobRecord
from repro.service.telemetry import (
    STAGES,
    Snapshot,
    Telemetry,
    counter_values,
    snapshot_histogram,
    snapshot_value,
)


class QueueSaturated(ReproError):
    """Admission refused: the queue is at capacity (HTTP 429)."""

    def __init__(self, message: str, retry_after: float = 1.0, shed: bool = False):
        super().__init__(message)
        self.retry_after = max(1.0, retry_after)
        self.shed = shed  #: True when rejected by background load shedding


class ServiceDraining(ReproError):
    """Admission refused: the daemon is shutting down (HTTP 503)."""

#: Event kinds that close an SSE stream (canonical definition; the HTTP
#: layer re-exports it).
TERMINAL_EVENT_KINDS = ("done", "failed", "timeout", "cancelled")

#: Terminal event kinds, by outcome status.
_TERMINAL_KINDS = {
    "completed": "done",
    "cached": "done",
    "failed": "failed",
    "timeout": "timeout",
    "cancelled": "cancelled",
}

#: How many events are retained per job for SSE replay.
_HISTORY_LIMIT = 512

#: How many jobs keep a replayable history.  Beyond this, the oldest
#: *settled* keys are evicted — a late SSE subscriber to an evicted job
#: gets a terminal event synthesized from the journaled record instead,
#: so nothing observable is lost while daemon memory stays bounded.
_HISTORY_KEYS = 1024

#: Fairness bookkeeping cap: clients beyond this evict their oldest peers.
_CLIENT_LIMIT = 4096


class Subscription:
    """One event consumer: a bounded mailbox plus an unsubscribe handle."""

    def __init__(self, bus: "EventBus", key: Optional[str]) -> None:
        self._bus = bus
        self.key = key
        self.mailbox: "queue_module.Queue[Dict[str, object]]" = queue_module.Queue(
            maxsize=4096
        )

    def get(self, timeout: Optional[float] = None) -> Optional[Dict[str, object]]:
        """Next event, or ``None`` on timeout."""
        try:
            return self.mailbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def close(self) -> None:
        self._bus.unsubscribe(self)


class EventBus:
    """Fan-out of job lifecycle events with per-job replayable history."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._history: Dict[str, List[Dict[str, object]]] = {}
        #: Subscriptions indexed by job key, so publishing an event only
        #: walks that job's watchers — with thousands of SSE streams open,
        #: a flat subscriber list would serialize every dispatcher behind
        #: O(all subscribers) work per event.
        self._by_key: Dict[str, List[Subscription]] = {}
        #: Firehose subscriptions (``key=None``): they see every event.
        self._firehose: List[Subscription] = []

    @staticmethod
    def _deliver(subscription: Subscription, event: Dict[str, object]) -> None:
        try:
            subscription.mailbox.put_nowait(event)
        except queue_module.Full:  # slow consumer: drop, don't block
            pass

    def publish(
        self,
        kind: str,
        key: str,
        label: str = "",
        state: str = "",
        detail: str = "",
        runtime: float = 0.0,
        trace: str = "",
        elapsed_s: Optional[float] = None,
    ) -> Dict[str, object]:
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "ts": time.time(),
                "kind": kind,
                "key": key,
                "label": label,
                "state": state,
                "detail": detail,
                "runtime": round(runtime, 3),
                "trace": trace,
            }
            if elapsed_s is not None:
                event["elapsed_s"] = round(elapsed_s, 3)
            history = self._history.setdefault(key, [])
            history.append(event)
            del history[:-_HISTORY_LIMIT]
            if len(self._history) > _HISTORY_KEYS:
                self._evict_settled_histories()
            for subscription in self._by_key.get(key, ()):
                self._deliver(subscription, event)
            for subscription in self._firehose:
                self._deliver(subscription, event)
            return event

    def subscribe(
        self, key: Optional[str] = None, replay: bool = True, after: int = 0
    ) -> Subscription:
        """Start consuming events (``key=None`` = all jobs).

        With ``replay`` the job's retained history is delivered first, so
        an SSE client that connects after settlement still sees the full
        ``queued → ... → done`` sequence.  Subscribing and replay happen
        under one lock, so no event can fall between history and live
        delivery.

        ``after`` filters the *history replay* to events with a greater
        ``seq`` — the resume cursor of a reconnecting SSE client.  Live
        events are never filtered: seq restarts at 1 each daemon epoch, so
        a stale cursor must not be allowed to swallow fresh events.
        """
        subscription = Subscription(self, key)
        with self._lock:
            if replay and key is not None:
                for event in self._history.get(key, []):
                    if int(event["seq"]) > after:
                        subscription.mailbox.put_nowait(event)
            if key is None:
                self._firehose.append(subscription)
            else:
                self._by_key.setdefault(key, []).append(subscription)
        return subscription

    def broadcast_shutdown(self, detail: str = "service draining") -> None:
        """Deliver a keyless ``shutdown`` event to every open subscription.

        SSE streams treat it as terminal, so a drain closes them with an
        explicit event instead of a silent TCP reset.  It is not recorded
        in any per-job history (it belongs to the epoch, not a job).
        """
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "ts": time.time(),
                "kind": "shutdown",
                "key": "",
                "label": "",
                "state": "",
                "detail": detail,
                "runtime": 0.0,
                "trace": "",
            }
            for subscription in self._firehose:
                self._deliver(subscription, event)
            for watchers in self._by_key.values():
                for subscription in watchers:
                    self._deliver(subscription, event)

    def unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            if subscription.key is None:
                try:
                    self._firehose.remove(subscription)
                except ValueError:
                    pass
                return
            watchers = self._by_key.get(subscription.key)
            if watchers is None:
                return
            try:
                watchers.remove(subscription)
            except ValueError:
                pass
            if not watchers:  # don't leak empty buckets for settled jobs
                del self._by_key[subscription.key]

    def _evict_settled_histories(self) -> None:
        """Drop the oldest settled jobs' histories (caller holds the lock).

        Only keys whose last event is terminal are evicted; active jobs
        keep their history no matter how many there are.
        """
        for stale in list(self._history):
            if len(self._history) <= _HISTORY_KEYS:
                break
            events = self._history[stale]
            if events and events[-1]["kind"] in TERMINAL_EVENT_KINDS:
                del self._history[stale]

    def history(self, key: str) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._history.get(key, []))


class LayoutScheduler:
    """Dispatch queued layout jobs through a shared batch runner."""

    def __init__(
        self,
        queue: JobQueue,
        cache: ResultCache,
        runner: Optional[BatchRunner] = None,
        concurrency: int = 1,
        pool_workers: int = 1,
        job_timeout: Optional[float] = None,
        max_queue_depth: int = 0,
        class_limits: Optional[Dict[str, int]] = None,
        background_shed_ratio: float = 0.5,
        poison_threshold: int = 3,
        slo: Optional[SLOConfig] = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.queue = queue
        self.cache = cache
        self.runner = runner or BatchRunner(
            cache_dir=cache, workers=pool_workers, job_timeout=job_timeout
        )
        self.concurrency = concurrency
        #: Queued-job ceiling; 0 disables global backpressure.
        self.max_queue_depth = max_queue_depth
        #: Optional per-priority-class queued-job ceilings.
        self.class_limits = dict(class_limits or {})
        #: Fraction of ``max_queue_depth`` past which ``background``-class
        #: submissions are shed before the queue is actually full.
        self.background_shed_ratio = background_shed_ratio
        #: Worker-crash attempts before a job is quarantined as poisoned.
        self.poison_threshold = max(1, poison_threshold)
        self.bus = EventBus()
        self.started_unix = time.time()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._dispatch_seq = 0
        self._last_served: Dict[str, int] = {}
        #: Guards the runtime EMA below.  It is mutated from every
        #: dispatcher thread; a bare read-modify-write would silently drop
        #: samples under load.  Always the innermost lock: never take
        #: ``self._lock`` or the queue lock while holding it.
        self._ema_lock = threading.Lock()
        self._draining = False
        self._runtime_ema = 0.0
        self._replayed = self.queue.depth()  # pending jobs inherited from the journal
        #: Counters, histograms and SLO objectives: ``/metrics``,
        #: ``/stats`` and ``/slo`` all derive from one ``snapshot()`` call.
        self.telemetry = Telemetry(slo)
        #: Per-job span trees (``GET /jobs/{hash}/trace``).
        self.traces = TraceStore()
        self._slo_thread: Optional[threading.Thread] = None
    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the dispatcher threads (idempotent; restartable after stop)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.concurrency):
            thread = threading.Thread(
                target=self._dispatch_thread, name=f"dispatch-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        if self.telemetry.slo_monitor is not None and self._slo_thread is None:
            # Deliberately NOT in self._threads: health() counts
            # dispatchers_alive from that list, and the sampler is not a
            # dispatcher.
            self._slo_thread = threading.Thread(
                target=self._slo_sampler, name="slo-sampler", daemon=True
            )
            self._slo_thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop dispatching.  Jobs already running finish and settle."""
        self._stop.set()
        with self._wakeup:
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self._slo_thread is not None:
            self._slo_thread.join(timeout=timeout)
            self._slo_thread = None

    def _slo_sampler(self) -> None:
        """Sampler loop: one windowed baseline point per interval."""
        self.telemetry.sample()
        while not self._stop.wait(self.telemetry.slo.sample_interval_s):
            self.telemetry.sample()

    def begin_drain(self) -> None:
        """Stop admitting work; everything else keeps running."""
        self._draining = True

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: the SIGTERM contract.

        1. Stop admitting (new submissions get :class:`ServiceDraining`).
        2. Let running jobs finish within ``timeout``; queued jobs stay
           journaled as ``queued`` for the next epoch.
        3. Stop the dispatchers; any job still ``running`` after that
           (worker outlived the grace period) is requeued, so the journal
           never records an in-flight job as anything but resumable.
           A multi-phase solve cut off here has already checkpointed every
           phase it completed (workers write checkpoints at phase
           boundaries as they go), so the next epoch's re-dispatch resumes
           at the first unfinished phase instead of starting cold.
        4. Compact the journal (one snapshot line per record — the fastest
           possible replay for the next epoch).
        5. Broadcast ``shutdown`` so every SSE stream closes on an
           explicit terminal event.
        """
        self.begin_drain()
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.queue.counts()["running"] == 0:
                break
            time.sleep(0.05)
        threads = list(self._threads)
        self.stop(timeout=max(1.0, deadline - time.time()))
        # Only touch leftover "running" records once no dispatcher survives
        # to settle them out from under us.
        if not any(thread.is_alive() for thread in threads):
            for record in self.queue.records():
                if record.state == "running":
                    self.queue.requeue(record.key)
        self.queue.compact()
        self.bus.broadcast_shutdown()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        document: Dict[str, object],
        priority: Optional[str] = None,
        client: str = "anonymous",
        trace_id: Optional[str] = None,
    ) -> Tuple[JobRecord, str]:
        """Admit one job document; returns ``(record, disposition)``.

        Dispositions: ``queued`` / ``requeued`` (will be dispatched),
        ``attached`` (joined an in-flight identical job), ``done``
        (already settled), ``cached`` (settled right now from the result
        cache without running — the short-circuit counts as a cache hit in
        ``GET /stats``).

        ``trace_id`` (from an ``X-Trace-Id`` header) correlates the
        submission across events, logs and the span tree; one is minted
        when the caller sends none.

        Raises :class:`ServiceDraining` while draining and
        :class:`QueueSaturated` when admitting this job would exceed the
        configured queue bounds.  Attaches and cache-served submissions
        are exempt from the capacity check — they add no queue entry, and
        refusing a free answer under overload would be perverse.
        """
        if self._draining:
            raise ServiceDraining("service is draining; not admitting jobs")
        admit_wall = CLOCK.time()
        admit_perf = CLOCK.perf()
        job = job_from_document(document)
        key = job.content_hash
        trace = trace_id or mint_trace_id()
        with self._lock:
            record, disposition = self._admit(
                job, document, key, priority, client, trace,
                admit_wall, admit_perf,
            )
        # Every disposition that reaches here answered the caller (429s
        # raised out of _admit): the SLO availability numerator.
        self.telemetry.bump("admitted")
        LOG.log(
            "job.submit",
            trace=record.trace_id or trace,
            key=key,
            disposition=disposition,
            client=client,
        )
        return record, disposition

    def _admit(
        self,
        job: LayoutJob,
        document: Dict[str, object],
        key: str,
        priority: Optional[str],
        client: str,
        trace: str,
        admit_wall: float,
        admit_perf: float,
    ) -> Tuple[JobRecord, str]:
        """The admission state machine (caller holds ``self._lock``)."""

        def admitted(record: JobRecord, detail: str) -> None:
            # The admission span and the job stream's opening event.
            self.traces.begin(record.key, trace, "")
            self.traces.span(
                record.key, "admission", admit_wall,
                CLOCK.perf() - admit_perf, detail=detail,
            )
            self.bus.publish(
                "queued", record.key, record.label, "queued", trace=record.trace_id
            )

        existing = self.queue.get(key)
        if existing is not None and existing.active:
            # The record can settle between the check above and the
            # queue's own locked submit (dispatchers settle under the
            # queue lock only), so honour whatever disposition the
            # queue actually took.
            record, disposition = self.queue.submit(
                document, priority, client, trace_id=trace
            )
            if disposition == "attached":
                self.telemetry.bump("attached")
            elif disposition in ("queued", "requeued"):
                admitted(record, disposition)
                self._wakeup.notify()
            return record, disposition
        if existing is not None and existing.state == "done":
            entry = self._cache_hit(job)
            if entry is not None:
                # Served from the already-settled record: no settlement
                # happens, so this lands in the cache-serve histogram,
                # keeping the latency histogram's count identity with the
                # settlement counters exact.
                self.telemetry.bump("served_from_cache")
                self.telemetry.cache_serve.observe(CLOCK.perf() - admit_perf)
                return existing, "cached"
            # Entry vanished (cache wiped/pruned): the journal says done
            # but the layout is gone — force the work back into the queue.
            self._check_capacity(existing.priority)
            record = self.queue.requeue(key, trace_id=trace)
            admitted(record, "requeued")
            self._wakeup.notify()
            return record, "requeued"
        if self.cache.peek(job) is None:
            # Fresh work that will actually occupy a queue slot (a
            # cache hit settles instantly and is admission-exempt).
            self._check_capacity(validate_priority(priority))
        record, disposition = self.queue.submit(
            document, priority, client, trace_id=trace
        )
        if disposition == "done":
            return record, disposition
        entry = self._cache_hit(job)
        if entry is not None:
            # Solved in a previous epoch (or by a CLI batch sharing the
            # cache): settle instantly, never touching the pool.
            summary = dict(entry.summary)
            summary["served"] = "cache"
            admitted(record, "served from cache")
            self._settle(
                record, "done", ("served_from_cache",),
                summary=summary,
                runtime=float(entry.summary.get("runtime_s", 0.0)),
                detail="served from cache",
            )
            return record, "cached"
        admitted(record, disposition)
        self._wakeup.notify()
        return record, disposition

    def _cache_hit(self, job: LayoutJob):
        """Cache lookup that counts a *hit* but never a miss.

        The pool performs its own counted lookup when the job is actually
        dispatched; counting the admission probe's miss as well would
        double-count every fresh submission in ``GET /stats``.
        """
        if self.cache.peek(job) is None:
            return None
        return self.cache.get(job)  # counts exactly one hit

    # ------------------------------------------------------------------ #
    # backpressure
    # ------------------------------------------------------------------ #

    def _check_capacity(self, priority: str) -> None:
        """Refuse admission when queue bounds would be exceeded.

        Checks, in order: the per-class limit, background load shedding
        (past ``background_shed_ratio`` of global capacity the lowest
        class yields its remaining headroom to the others), the global
        depth ceiling.  Raises :class:`QueueSaturated`; no-op when
        ``max_queue_depth`` is 0 and no class limit applies.
        """
        pending = self.queue.pending_counts()
        limit = self.class_limits.get(priority)
        if limit is not None and pending.get(priority, 0) >= limit:
            self.telemetry.bump("rejected")
            raise QueueSaturated(
                f"{priority} queue is full ({limit} jobs)",
                retry_after=self._retry_after_hint(pending.get(priority, 0)),
            )
        if self.max_queue_depth <= 0:
            return
        depth = sum(pending.values())
        if priority == "background":
            shed_at = self.background_shed_ratio * self.max_queue_depth
            if depth >= shed_at:
                self.telemetry.bump("shed")
                raise QueueSaturated(
                    f"shedding background work (queue depth {depth} >= "
                    f"{shed_at:.0f} of {self.max_queue_depth})",
                    retry_after=self._retry_after_hint(depth),
                    shed=True,
                )
        if depth >= self.max_queue_depth:
            self.telemetry.bump("rejected")
            raise QueueSaturated(
                f"queue is full ({depth}/{self.max_queue_depth} jobs)",
                retry_after=self._retry_after_hint(depth),
            )

    def _retry_after_hint(self, depth: int) -> float:
        """Seconds until a queue slot plausibly frees up.

        Estimated as (queued jobs / dispatcher count) service intervals of
        the recent runtime EMA, clamped to [1, 60] — a hint, not a
        promise, so the bound matters more than the precision.
        """
        with self._ema_lock:
            ema = self._runtime_ema
        interval = ema if ema > 0 else 1.0
        estimate = interval * max(1, depth) / max(1, self.concurrency)
        return min(60.0, max(1.0, estimate))

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def _select_next(self) -> Optional[JobRecord]:
        """Pick and claim the next queued record (caller holds the lock).

        Ordering: best priority class first; within a class the client
        served longest ago wins (per-client fairness); FIFO breaks ties.
        """
        while True:
            candidates = self.queue.queued()
            if not candidates:
                return None
            record = min(
                candidates,
                key=lambda r: (
                    priority_rank(r.priority),
                    self._last_served.get(r.client, -1),
                    r.seq,
                ),
            )
            self._last_served[record.client] = self._dispatch_seq
            self._dispatch_seq += 1
            if len(self._last_served) > _CLIENT_LIMIT:
                for client in sorted(self._last_served, key=self._last_served.get)[
                    : len(self._last_served) - _CLIENT_LIMIT
                ]:
                    del self._last_served[client]
            if record.attempts >= self.poison_threshold:
                # A previous incarnation of this content hash already burned
                # the whole quarantine budget (attempts ride the ``requeued``
                # disposition): re-quarantine without spending another worker.
                self._quarantine_exhausted(record)
                continue
            self.queue.mark_running(record.key)
            return record

    def _quarantine_exhausted(self, record: JobRecord) -> None:
        error = (
            f"poisoned: quarantine budget exhausted "
            f"(attempts={record.attempts}/{self.poison_threshold})"
        )
        self._settle(
            record, "failed", ("poisoned", "failures"),
            error=error, queued_until_settled=True,
        )

    def _dispatch_thread(self) -> None:
        """Supervisor shell around :meth:`_dispatch_loop`.

        Anything that escapes the loop (a bug outside the per-job error
        boundary, an injected ``scheduler.dispatch`` fault) is counted and
        the loop restarted — one bad iteration must not silently cost the
        daemon a dispatcher for the rest of its life.
        """
        while not self._stop.is_set():
            try:
                self._dispatch_loop()
            except BaseException:  # noqa: BLE001 - supervisor boundary
                self.telemetry.bump("dispatcher_restarts")
                continue
            return

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            # Outside the per-job boundary on purpose: a firing fault here
            # kills the loop and must be survived by _dispatch_thread.
            FAULTS.act("scheduler.dispatch")
            with self._wakeup:
                record = self._select_next()
                if record is None:
                    self._wakeup.wait(timeout=0.2)
                    continue
            dispatch_wall = CLOCK.time()
            dispatch_perf = CLOCK.perf()
            self._begin_dispatch_trace(record)
            self.bus.publish(
                "running", record.key, record.label, "running",
                trace=record.trace_id,
            )
            LOG.log(
                "job.dispatch", trace=record.trace_id, key=record.key,
                label=record.label, attempt=record.attempts,
            )
            try:
                job = job_from_document(record.document)
                job.trace_id = record.trace_id
                self.traces.span(
                    record.key, "dispatch", dispatch_wall,
                    CLOCK.perf() - dispatch_perf,
                )
                worker_wall = CLOCK.time()
                worker_perf = CLOCK.perf()
                outcome = self.runner.run_one(
                    job, progress=self._progress_forwarder(record)
                )
                worker_s = CLOCK.perf() - worker_perf
            except Exception as exc:  # noqa: BLE001 - dispatcher boundary
                self._settle(
                    record, "failed", ("failures",),
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            self._record_worker_spans(record, outcome, worker_wall, worker_s)
            settle_wall = CLOCK.time()
            settle_perf = CLOCK.perf()
            self._settle_outcome(record, outcome)
            self.traces.span(
                record.key, "settle", settle_wall, CLOCK.perf() - settle_perf
            )

    def _begin_dispatch_trace(self, record: JobRecord) -> None:
        """Open (or re-join) the record's span tree at dispatch time.

        A record replayed from a previous epoch has no in-memory spans —
        its admission happened before this daemon was born.  Synthesize a
        zero-length ``admission`` span marked ``truncated`` so the tree
        shows the job's full shape instead of silently dropping the
        crashed epoch's stages.
        """
        trace = self.traces.begin(record.key, record.trace_id, record.label)
        if not any(span.name == "admission" for span in trace.spans):
            self.traces.span(
                record.key, "admission", record.submitted_unix, 0.0,
                detail="replayed from journal", truncated=True,
            )
        if record.started_unix is not None:
            queue_wait = max(0.0, record.started_unix - record.submitted_unix)
            self.traces.span(
                record.key, "queue_wait", record.submitted_unix, queue_wait
            )

    def _record_worker_spans(
        self,
        record: JobRecord,
        outcome: JobOutcome,
        worker_wall: float,
        worker_s: float,
    ) -> None:
        """Record the worker span and its children from the solve profile.

        Child start stamps are derived by stacking the profiled durations
        onto the worker's start — the worker process has no shared clock
        with the daemon, so only the durations are authoritative.
        """
        key = record.key
        profile = outcome.profile or {}
        detail = outcome.status
        resumed_from = profile.get("resumed_from_phase")
        if resumed_from:
            # Trace consumers read resumption straight off the worker span;
            # replayed phases below carry wall_s from the *original* run.
            detail = f"{detail} resumed_from_phase={resumed_from}"
        self.traces.span(
            key, "worker", worker_wall, worker_s,
            detail=detail,
        )
        cursor = worker_wall
        if outcome.status == "completed":
            # Fork + pipe + payload overhead: worker wall minus flow time
            # and minus the cache put, which has its own span below.
            fork_s = max(
                0.0,
                worker_s
                - float(outcome.runtime)
                - float(profile.get("cache_put_s", 0.0)),
            )
            self.traces.span(
                key, "worker_fork", worker_wall, fork_s, parent="worker"
            )
            cursor += fork_s
        for phase in profile.get("phases", []):
            wall_s = float(phase.get("wall_s", 0.0))
            self.traces.span(
                key,
                f"solve.{phase.get('phase', '?')}",
                cursor,
                wall_s,
                parent="worker",
                detail=str(phase.get("solver_backend", "")),
            )
            cursor += wall_s
        for stage, name in (
            ("metrics_s", "metrics"),
            ("drc_s", "drc"),
            ("cache_put_s", "cache_put"),
        ):
            if stage in profile:
                seconds = float(profile[stage])
                self.traces.span(key, name, cursor, seconds, parent="worker")
                cursor += seconds

    def _progress_forwarder(
        self, record: JobRecord
    ) -> Callable[[ProgressEvent], None]:
        def forward(event: ProgressEvent) -> None:
            # Terminal pool events surface through settlement; re-publishing
            # them as "progress" would double-report the lifecycle.
            if event.kind in ("submitted", "cached", "completed", "failed", "timeout"):
                return
            elapsed = None
            if record.started_unix is not None:
                elapsed = max(0.0, CLOCK.time() - record.started_unix)
            detail = event.kind
            if event.detail:
                # e.g. "resumed:phase2" — the phase the worker continues from.
                detail = f"{event.kind}:{event.detail}"
            self.bus.publish(
                "progress",
                record.key,
                record.label,
                record.state,
                detail=detail,
                runtime=event.runtime,
                trace=record.trace_id,
                elapsed_s=elapsed,
            )

        return forward

    def _settle_outcome(self, record: JobRecord, outcome: JobOutcome) -> None:
        summary = dict(outcome.summary or {})
        error = outcome.error
        solved = None
        if outcome.status == "cached":
            summary["served"] = "cache"
            counters: Tuple[str, ...] = ("served_from_cache",)
        elif outcome.ok:
            summary["served"] = "solve"
            counters = ("solved",)
            solved = outcome
            resumed_from = (outcome.profile or {}).get("resumed_from_phase")
            if resumed_from:
                summary["resumed_from_phase"] = str(resumed_from)
        elif self._is_worker_crash(outcome):
            fresh = self.queue.get(record.key)
            attempts = fresh.attempts if fresh is not None else record.attempts
            if attempts < self.poison_threshold:
                # The crash may be environmental (OOM spike, injected
                # fault): give the job another worker — but only
                # poison_threshold of them in total.
                self.telemetry.bump("crash_retries")
                self.queue.requeue(record.key)
                LOG.log(
                    "job.crash_retry",
                    level="warning",
                    trace=record.trace_id,
                    key=record.key,
                    attempt=attempts,
                    budget=self.poison_threshold,
                )
                self.bus.publish(
                    "queued",
                    record.key,
                    record.label,
                    "queued",
                    detail=(
                        f"retry {attempts}/{self.poison_threshold} "
                        f"after worker crash"
                    ),
                    trace=record.trace_id,
                )
                with self._wakeup:
                    self._wakeup.notify()
                return
            # This job reliably kills its workers: quarantine it so it
            # cannot eat the pool forever.
            counters = ("poisoned", "failures")
            error = f"poisoned: {outcome.error} (attempts={attempts})"
        else:
            counters = ("failures",)
        self._settle(
            record, _TERMINAL_KINDS.get(outcome.status, "failed"), counters,
            summary=summary or None,
            error=error,
            runtime=outcome.runtime,
            solved=solved,
        )

    def _settle(
        self,
        record: JobRecord,
        state: str,
        counters: Tuple[str, ...],
        summary: Optional[Dict[str, object]] = None,
        error: Optional[str] = None,
        runtime: float = 0.0,
        detail: str = "",
        solved: Optional[JobOutcome] = None,
        queued_until_settled: bool = False,
    ) -> None:
        """The one settlement path: journal, counters, histograms, log, SSE.

        Nothing happens unless ``queue.settle`` reports a real transition,
        so settling an already-terminal record changes no counter, no
        histogram and no event stream — and counters and histograms move
        together, which keeps the load harness's count identity exact.
        ``solved`` is a fresh solve's outcome (runtime EMA, resume
        accounting, the ``solve`` stage); ``queued_until_settled`` marks a
        record that never left the queue, so its whole latency is wait.
        """
        if not self.queue.settle(
            record.key, state, summary=summary, error=error, runtime=runtime
        ):
            return
        for name in counters:
            self.telemetry.bump(name)
        if solved is not None:
            self._observe_solved(record, solved)
        self._observe_settled(
            record,
            solve=solved.runtime if solved is not None else 0.0,
            queued_until_settled=queued_until_settled,
        )
        LOG.log(
            "job.settled",
            level="info" if state == "done" else "error",
            trace=record.trace_id,
            key=record.key,
            state=state,
            runtime_s=round(runtime, 3),
            error=error,
        )
        self.bus.publish(
            state, record.key, record.label, state,
            detail=error or detail, runtime=runtime, trace=record.trace_id,
        )

    def _observe_solved(self, record: JobRecord, outcome: JobOutcome) -> None:
        """Account a fresh solve at settlement: runtime EMA and checkpoints.

        The EMA behind the ``Retry-After`` hint is fed by every dispatcher,
        so its read-modify-write happens under ``_ema_lock``.  The worker's
        solve profile is the authoritative source for checkpoints: it
        counts those that actually landed (the durable write succeeded) and
        names the phase a resumed solve continued from, so the metrics
        cannot drift from what the worker really did.
        """
        if outcome.runtime > 0:
            with self._ema_lock:
                if self._runtime_ema <= 0:
                    self._runtime_ema = outcome.runtime
                else:
                    self._runtime_ema = 0.8 * self._runtime_ema + 0.2 * outcome.runtime
        profile = outcome.profile or {}
        writes = int(profile.get("checkpoint_writes", 0) or 0)
        if writes:
            self.telemetry.bump("checkpoint_writes", writes)
        resumed_from = profile.get("resumed_from_phase")
        if not resumed_from:
            return
        self.telemetry.bump("resumed")
        saved = float(profile.get("resume_saved_s", 0.0) or 0.0)
        self.telemetry.resume_saved.observe(max(0.0, saved))
        LOG.log(
            "job.resumed",
            level="info",
            trace=record.trace_id,
            key=record.key,
            resumed_from_phase=str(resumed_from),
            saved_s=round(saved, 3),
        )

    @staticmethod
    def _is_worker_crash(outcome: JobOutcome) -> bool:
        """Whether the outcome is a killed worker (retry-worthy).

        Only crashes qualify: an ordinary failure or a timeout is a
        deterministic property of the job and would just fail again.
        """
        return (
            outcome.status == "failed"
            and bool(outcome.error)
            and "worker crashed" in outcome.error
        )

    def _observe_settled(
        self,
        record: JobRecord,
        solve: float = 0.0,
        queued_until_settled: bool = False,
    ) -> None:
        """Feed one settlement into the telemetry histograms and mark the
        job's span tree settled (evictable).

        The queue wait is the wait from submission to dispatch (none for
        a job that never reached a dispatcher), or the whole latency when
        ``queued_until_settled``.
        """
        total = (record.settled_unix or CLOCK.time()) - record.submitted_unix
        queue_wait = 0.0
        if queued_until_settled:
            queue_wait = total
        elif record.started_unix is not None:
            queue_wait = record.started_unix - record.submitted_unix
        self.telemetry.observe_settled(total, queue_wait, solve)
        self.traces.settle(record.key)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def draining(self) -> bool:
        return self._draining

    def health(self) -> Dict[str, object]:
        """The ``GET /healthz`` document (also embedded in ``/stats``).

        ``status`` is ``ok`` unless durability is degraded (journal write
        failures sticking, cache unwritable) — degraded is still *alive*:
        liveness probes always get HTTP 200, only the body changes.
        """
        journal_degraded = self.queue.degraded
        cache_error = self.cache.last_put_error
        degraded = journal_degraded is not None or cache_error is not None
        return {
            "status": "degraded" if degraded else "ok",
            "draining": self._draining,
            "journal_degraded": journal_degraded,
            "journal_write_errors": self.queue.write_errors,
            "cache_writable": cache_error is None,
            "cache_put_error": cache_error,
            "cache_put_errors": self.cache.stats.put_errors,
            "dispatchers_alive": sum(
                1 for thread in self._threads if thread.is_alive()
            ),
            "dispatcher_restarts": self.telemetry.count("dispatcher_restarts"),
        }

    def saturated(self) -> bool:
        """Whether a fresh batch-class submission would be refused now."""
        if self._draining:
            return True
        if self.max_queue_depth <= 0:
            return False
        return self.queue.depth() >= self.max_queue_depth

    def _snapshot(self) -> Tuple[Snapshot, Dict[str, object]]:
        """Refresh the queue/cache gauges, then take the one telemetry
        snapshot ``GET /metrics``, ``/stats`` and ``/slo`` are rendered
        from: ``(registry snapshot, SLO document)``."""
        counts = self.queue.counts()
        pending = self.queue.pending_counts()
        cache = self.cache.stats
        m = self.telemetry.registry
        cache_help = "Result-cache counter (scheduler's cache view)"
        for name, help_text, value in (
            ("rfic_uptime_seconds", "Seconds since the scheduler started",
             time.time() - self.started_unix),
            ("rfic_queue_depth", "Jobs waiting for a dispatcher",
             counts["queued"]),
            ("rfic_jobs_running", "Jobs currently dispatched", counts["running"]),
            ("rfic_jobs_replayed", "Pending jobs inherited from the journal",
             self._replayed),
            ("rfic_dispatchers", "Configured dispatcher threads",
             self.concurrency),
            ("rfic_cache_hits", cache_help, cache.hits),
            ("rfic_cache_misses", cache_help, cache.misses),
            ("rfic_cache_stores", cache_help, cache.stores),
            ("rfic_cache_put_errors", cache_help, cache.put_errors),
            ("rfic_cache_quarantined", cache_help, cache.quarantined),
            ("rfic_checkpoint_hits", cache_help, cache.checkpoint_hits),
            ("rfic_checkpoint_corrupt", cache_help, cache.checkpoint_corrupt),
        ):
            m.gauge(name, help_text).set(value)
        for state in JOB_STATES:
            m.gauge(
                "rfic_jobs_state", "Journal records per lifecycle state",
                labels={"state": state},
            ).set(counts.get(state, 0))
        for cls in ("interactive", "batch", "background"):
            m.gauge(
                "rfic_admission_pending", "Queued jobs per priority class",
                labels={"class": cls},
            ).set(pending.get(cls, 0))
        return self.telemetry.snapshot()

    def metrics_snapshot(self) -> Snapshot:
        """One coherent registry snapshot (``GET /metrics``)."""
        return self._snapshot()[0]

    def slo_document(self) -> Dict[str, object]:
        """The ``GET /slo`` document (one telemetry snapshot)."""
        if self.telemetry.slo_monitor is None:
            return {"configured": False}
        return self._snapshot()[1]

    def stats(self) -> Dict[str, object]:
        """The ``GET /stats`` document (one telemetry snapshot, see above).

        Every counter — the embedded health's ``dispatcher_restarts``
        included — is read from that snapshot, never live.
        """
        snapshot, slo = self._snapshot()
        counter = counter_values(snapshot)
        counts = {
            state: int(
                snapshot_value(snapshot, "rfic_jobs_state", {"state": state})
            )
            for state in JOB_STATES
        }
        pending = {}
        for cls in ("interactive", "batch", "background"):
            value = int(
                snapshot_value(snapshot, "rfic_admission_pending", {"class": cls})
            )
            if value:
                pending[cls] = value
        hits = int(snapshot_value(snapshot, "rfic_cache_hits"))
        misses = int(snapshot_value(snapshot, "rfic_cache_misses"))
        lookups = hits + misses
        cache = {
            "hits": hits,
            "misses": misses,
            "lookups": lookups,
            "stores": int(snapshot_value(snapshot, "rfic_cache_stores")),
            "put_errors": int(snapshot_value(snapshot, "rfic_cache_put_errors")),
            "quarantined": int(
                snapshot_value(snapshot, "rfic_cache_quarantined")
            ),
            "hit_rate": round(hits / lookups, 3) if lookups else 0.0,
        }
        resumes = {
            "checkpoint_writes": counter["checkpoint_writes"],
            "resumed": counter["resumed"],
            "budget_saved_s": snapshot_histogram(
                snapshot, "rfic_resume_budget_saved_seconds"
            ),
        }
        return {
            "uptime_s": round(snapshot_value(snapshot, "rfic_uptime_seconds"), 1),
            "queue_depth": counts["queued"],
            "running": counts["running"],
            "jobs": counts,
            "replayed_from_journal": self._replayed,
            "solved": counter["solved"],
            "served_from_cache": counter["served_from_cache"],
            "attached": counter["attached"],
            "failures": counter["failures"],
            "dispatchers": self.concurrency,
            "pool_workers": self.runner.workers,
            "cache": cache,
            "resumes": resumes,
            "journal_dropped_lines": self.queue.dropped_lines,
            "admission": {
                "max_queue_depth": self.max_queue_depth,
                "class_limits": dict(self.class_limits),
                "background_shed_ratio": self.background_shed_ratio,
                "pending_by_class": pending,
                "admitted": counter["admitted"],
                "rejected": counter["rejected"],
                "shed": counter["shed"],
                "retry_after_hint_s": round(
                    self._retry_after_hint(counts["queued"]), 1
                ),
            },
            "supervision": {
                "dispatcher_restarts": counter["dispatcher_restarts"],
                "crash_retries": counter["crash_retries"],
                "poisoned": counter["poisoned"],
                "poison_threshold": self.poison_threshold,
            },
            "metrics": {
                "job_latency_s": snapshot_histogram(
                    snapshot, "rfic_job_latency_seconds"
                ),
                "cache_serve_s": snapshot_histogram(
                    snapshot, "rfic_cache_serve_seconds"
                ),
                "stages_s": {
                    stage: snapshot_histogram(
                        snapshot, "rfic_job_stage_seconds", {"stage": stage}
                    )
                    for stage in STAGES
                },
            },
            "slo": slo,
            "health": dict(
                self.health(),
                dispatcher_restarts=counter["dispatcher_restarts"],
            ),
        }

    def trace_document(self, record: JobRecord) -> Dict[str, object]:
        """The ``GET /jobs/{hash}/trace`` document: the job's span tree.

        When the in-memory store has no spans (the job settled in a
        previous epoch), the tree is synthesized from the journaled
        timestamps, every span marked ``truncated`` — crashed-epoch
        history is degraded, never dropped.
        """
        trace = self.traces.get(record.key)
        if trace is not None and trace.spans:
            trace_id = trace.trace_id or record.trace_id
            spans = [span.to_dict() for span in trace.spans]
        else:
            trace_id = record.trace_id
            spans = []
            if record.started_unix is not None:
                queue_wait = max(
                    0.0, record.started_unix - record.submitted_unix
                )
                spans.append(Span(
                    "queue_wait", record.submitted_unix, queue_wait,
                    detail="synthesized from journal", truncated=True,
                ).to_dict())
                if record.runtime:
                    spans.append(Span(
                        "worker", record.started_unix, float(record.runtime),
                        detail="synthesized from journal", truncated=True,
                    ).to_dict())
            elif record.terminal:
                # Settled without ever dispatching (cache serve or
                # quarantine) in an epoch whose spans are gone.
                total = 0.0
                if record.settled_unix:
                    total = max(
                        0.0, record.settled_unix - record.submitted_unix
                    )
                spans.append(Span(
                    "admission", record.submitted_unix, total,
                    detail="synthesized from journal", truncated=True,
                ).to_dict())
        top_level = [span for span in spans if not span.get("parent")]
        total_s = None
        if record.settled_unix is not None:
            total_s = round(
                max(0.0, record.settled_unix - record.submitted_unix), 6
            )
        return {
            "key": record.key,
            "trace": trace_id,
            "label": record.label,
            "state": record.state,
            "submitted_unix": record.submitted_unix,
            "started_unix": record.started_unix,
            "settled_unix": record.settled_unix,
            "total_s": total_s,
            "span_sum_s": round(
                sum(float(span["duration_s"]) for span in top_level), 6
            ),
            "truncated": any(span.get("truncated") for span in spans),
            "spans": spans,
        }
