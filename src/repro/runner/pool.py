"""Parallel execution of layout jobs with caching and crash isolation.

:class:`WorkerPool` runs :class:`~repro.runner.jobs.LayoutJob` instances in
child processes (one process per job, at most ``workers`` alive at a time).
Each job gets

* a **cache lookup** before any process is spawned (hits settle instantly),
* a **per-job timeout** (the child is terminated, the batch continues),
* **crash isolation** (a child dying without reporting — segfault, OOM
  kill, ``os._exit`` — yields a ``"failed"`` outcome, not a broken batch),
* **structured progress events** via an optional callback.

The pool does not poll.  Between settlements it blocks in
:func:`multiprocessing.connection.wait` on every running job's pipe and
process sentinel, with a timeout at the nearest per-job deadline or crash
grace end, so a job settles as soon as its worker reports or exits.

Identical jobs (equal content hashes) inside one batch are executed once
and their outcome is shared.  ``workers=0`` runs everything inline in the
current process — no isolation, but no fork overhead either, which is the
right trade for fully cached batches and for the experiment harnesses'
small configurations.  Both modes share one scheduling loop and one way
to run a job: :func:`_execute` runs it (inline, or inside the forked
child) and :func:`_reported` turns its report into an outcome,
so the two modes differ only in isolation, timeouts and the ``started``
event a forked job emits.

:class:`BatchRunner` is the convenience facade bundling a cache directory
with pool settings; it is what the CLI and the experiment harnesses use.

Both classes are **re-entrant**: :meth:`WorkerPool.run` keeps all batch
state in locals, so several threads may drive batches through one shared
pool/runner concurrently (the layout service's dispatcher threads do
exactly that, sharing one runner so all dispatches hit one cache and one
set of statistics).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.core.result import FlowResult
from repro.faults import FAULTS
from repro.obs.logging import LOG
from repro.obs.trace import CLOCK
from repro.layout.drc import run_drc
from repro.layout.export_json import layout_from_dict, layout_to_dict
from repro.layout.metrics import compute_metrics
from repro.runner.cache import CachedResult, ResultCache, SolveCheckpointer
from repro.runner.jobs import LayoutJob

PathLike = Union[str, Path]

#: Seconds a child that exited without a report gets before it counts as
#: crashed: its report may still be in flight through the pipe.
_CRASH_GRACE = 0.5


@dataclass
class ProgressEvent:
    """One structured progress notification from the pool."""

    kind: str  #: submitted | cached | started | resumed | completed | failed | timeout | cancelled
    job_key: str
    label: str
    detail: str = ""
    runtime: float = 0.0

    def __str__(self) -> str:
        parts = [self.label]
        if self.runtime:
            parts.append(f"{self.runtime:.1f}s")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


ProgressCallback = Callable[[ProgressEvent], None]
StopPredicate = Callable[["JobOutcome"], bool]


@dataclass
class JobOutcome:
    """Terminal state of one job in a batch."""

    job: LayoutJob
    status: str  #: completed | cached | failed | timeout | cancelled
    summary: Optional[Dict[str, object]] = None
    runtime: float = 0.0
    error: Optional[str] = None
    entry: Optional[CachedResult] = None
    layout_doc: Optional[Mapping[str, object]] = None
    phases: List[Dict[str, object]] = field(default_factory=list)
    #: Per-stage cost breakdown (``FlowResult.profile()`` shape) when the
    #: run produced one — cached outcomes reload it from the entry.
    profile: Optional[Dict[str, object]] = None
    #: Trace ID the job carried across the fork boundary ("" when untraced).
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        """Whether the job produced a layout (fresh or cached)."""
        return self.status in ("completed", "cached")

    @property
    def drc_clean(self) -> bool:
        return bool(self.ok and self.summary and self.summary.get("drc_clean"))

    def flow_result(self) -> FlowResult:
        """Materialise a :class:`FlowResult` from this outcome.

        Works for successful outcomes only; cached entries reload the
        stored layout, fresh uncached outcomes use the layout document the
        worker sent back.  Metrics and DRC are recomputed from the layout.
        """
        if self.entry is not None:
            return self.entry.flow_result()
        if self.layout_doc is None:
            raise RuntimeError(
                f"job {self.job.describe()!r} has no layout "
                f"(status {self.status!r}: {self.error or 'no result'})"
            )
        layout = layout_from_dict(self.layout_doc)
        return FlowResult(
            flow=str((self.summary or {}).get("flow", self.job.flow)),
            circuit=layout.netlist.name,
            layout=layout,
            metrics=compute_metrics(layout),
            drc=run_drc(layout),
            runtime=float((self.summary or {}).get("runtime_s", self.runtime)),
        )

    def row(self) -> Dict[str, object]:
        """Flat report row (for text tables and ``--json`` output)."""
        row: Dict[str, object] = {
            "job": self.job.describe(),
            "status": self.status,
            "runtime_s": round(self.runtime, 2),
        }
        if self.summary:
            for key in ("max_bends", "total_bends", "drc_clean", "drc_violations"):
                row[key] = self.summary.get(key)
        if self.error:
            row["error"] = self.error
        return row


def _execute(job: LayoutJob, cache: Optional[ResultCache]) -> Tuple[bool, object]:
    """Run one job and build its report: ``(True, payload)`` or ``(False, error)``.

    Both pool modes run jobs through here — inline in the caller's process,
    forked inside :func:`_child_main` — and :func:`_reported` turns the
    report into an outcome.  The payload carries the stored cache entry, so
    the parent never reads the entry back.  Only ``Exception`` is caught,
    so an inline pool never swallows ``KeyboardInterrupt``.
    """
    try:
        FAULTS.act("worker.run")
        checkpointer = (
            SolveCheckpointer(cache, job.content_hash)
            if cache is not None and job.flow == "pilp"
            else None
        )
        # Only pass the kwarg when checkpointing is live: non-pilp flows
        # (and cacheless pools) keep the plain ``run()`` contract.
        result = (
            job.run(checkpoint=checkpointer)
            if checkpointer is not None
            else job.run()
        )
        profile = result.profile()
        entry = None
        if cache is not None:
            put_started = CLOCK.perf()
            entry = cache.put(job, result)
            profile["cache_put_s"] = round(CLOCK.perf() - put_started, 6)
            if entry is not None and checkpointer is not None:
                # The full entry supersedes the partial one; a leftover
                # checkpoint would only shadow the cache hit's fast path.
                checkpointer.clear()
        payload: Dict[str, object] = {
            "summary": result.summary(),
            "phases": result.phase_table(),
            "runtime": result.runtime,
            "profile": profile,
            "entry": entry,
        }
        if entry is None:
            # No cache, or the store failed (full disk): the layout must
            # travel with the report or the solve would be lost with it.
            payload["layout"] = layout_to_dict(result.layout)
        return True, payload
    except Exception as exc:  # noqa: BLE001 - job boundary
        return False, f"{type(exc).__name__}: {exc}"


def _reported(
    job: LayoutJob, report: Tuple[bool, object], elapsed: float
) -> JobOutcome:
    """Turn an :func:`_execute` report into a ``completed`` or ``failed`` outcome."""
    ok, payload = report
    trace_id = getattr(job, "trace_id", "")
    if ok:
        return JobOutcome(
            job=job,
            status="completed",
            summary=dict(payload["summary"]),
            runtime=float(payload["runtime"]),
            entry=payload["entry"],
            layout_doc=payload.get("layout"),
            phases=list(payload["phases"]),
            profile=payload["profile"],
            trace_id=trace_id,
        )
    LOG.log(
        "worker.failed",
        level="error",
        trace=trace_id,
        key=job.content_hash,
        error=str(payload),
    )
    return JobOutcome(
        job=job, status="failed", runtime=elapsed, error=str(payload), trace_id=trace_id
    )


def _child_main(job: LayoutJob, cache_root: Optional[str], conn) -> None:
    """Entry point of a worker process: run one job, report via its pipe.

    Each job gets its own pipe so that terminating one child (timeout,
    cancellation) can at worst corrupt that child's channel — never the
    reports of the other workers in the batch.
    """
    try:
        cache = ResultCache(cache_root) if cache_root is not None else None
        conn.send(_execute(job, cache))
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        conn.send((False, f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


@dataclass
class _Running:
    job: LayoutJob
    process: multiprocessing.Process
    conn: object
    started_at: float
    deadline: Optional[float]
    message: Optional[tuple] = None
    conn_eof: bool = False
    dead_since: Optional[float] = None


class WorkerPool:
    """Schedule layout jobs over worker processes (see module docstring)."""

    def __init__(
        self,
        workers: Optional[int] = None,
        job_timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = run inline)")
        self.workers = workers
        self.job_timeout = job_timeout
        self.cache = cache
        self.progress = progress

    # ------------------------------------------------------------------ #

    def run(
        self,
        jobs: Sequence[LayoutJob],
        stop_when: Optional[StopPredicate] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[JobOutcome]:
        """Run a batch and return one outcome per job, in input order.

        ``stop_when`` is evaluated on every settled outcome; once it
        returns True the remaining running jobs are terminated and pending
        jobs are marked ``"cancelled"`` (this is how ``rfic-layout batch``
        without ``--keep-going`` cancels the rest after a broken job).

        ``progress`` is a per-call callback invoked *in addition to* the
        pool-wide one: the layout service subscribes each dispatched job's
        event stream this way without touching the shared pool's state
        (the method keeps all batch state in locals, so concurrent calls
        from several threads are safe).
        """
        jobs = list(jobs)
        outcomes: Dict[int, JobOutcome] = {}

        # Deduplicate by content hash: the first occurrence executes, the
        # rest share its outcome.
        primary_index: Dict[str, int] = {}
        duplicates: Dict[int, int] = {}
        unique: List[int] = []
        for index, job in enumerate(jobs):
            self._emit("submitted", job, progress=progress)
            key = job.content_hash
            if key in primary_index:
                duplicates[index] = primary_index[key]
            else:
                primary_index[key] = index
                unique.append(index)

        self._schedule(jobs, unique, outcomes, stop_when, progress)

        for index, primary in duplicates.items():
            source = outcomes[primary]
            outcomes[index] = replace(
                source,
                job=jobs[index],
                trace_id=getattr(jobs[index], "trace_id", "") or source.trace_id,
            )
        return [outcomes[index] for index in range(len(jobs))]

    # ------------------------------------------------------------------ #
    # scheduling loop
    # ------------------------------------------------------------------ #

    def _schedule(
        self,
        jobs: List[LayoutJob],
        unique: List[int],
        outcomes: Dict[int, JobOutcome],
        stop_when: Optional[StopPredicate],
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Settle every unique job: cache hit, inline run, or forked worker.

        With ``workers == 0``, ``launch`` runs each job synchronously
        through :func:`_execute`, so nothing is ever left running; otherwise
        it forks up to ``workers`` children and the loop waits on them.
        Whatever is still pending or running when the batch stops (or
        unwinds) is cancelled in the one ``finally``.
        """
        context = multiprocessing.get_context()
        cache_root = str(self.cache.root) if self.cache is not None else None
        pending = list(unique)
        running: Dict[int, _Running] = {}

        def settle(index: int, outcome: JobOutcome) -> None:
            outcomes[index] = self._settle(outcome, progress)
            if stop_when and stop_when(outcome):
                raise _StopBatch()

        def launch() -> None:
            while pending and len(running) < max(1, self.workers):
                index = pending.pop(0)
                job = jobs[index]
                cached = self._cache_lookup(job)
                if cached is not None:
                    settle(index, cached)
                    continue
                if self.workers == 0:
                    self._emit_resumed(job, progress)
                    started = time.perf_counter()
                    report = _execute(job, self.cache)
                    settle(index, _reported(job, report, time.perf_counter() - started))
                    continue
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_child_main, args=(job, cache_root, sender), daemon=True
                )
                process.start()
                sender.close()  # the child owns the write end now
                now = time.perf_counter()
                deadline = now + self.job_timeout if self.job_timeout else None
                running[index] = _Running(job, process, receiver, now, deadline)
                self._emit("started", job, progress=progress)
                self._emit_resumed(job, progress)

        try:
            launch()
            while running:
                now = time.perf_counter()
                for index in list(running):
                    state = running[index]
                    outcome = self._poll(state, now)
                    if outcome is None:
                        continue
                    del running[index]
                    state.conn.close()
                    settle(index, outcome)
                launch()
                if running:
                    _wait_for_change(running.values())
        except _StopBatch:
            pass
        finally:
            for state in running.values():
                _terminate(state.process)
                state.conn.close()
            now = time.perf_counter()
            for index in [*running, *pending]:
                state = running.get(index)
                outcomes[index] = self._settle(
                    JobOutcome(
                        job=jobs[index],
                        status="cancelled",
                        runtime=now - state.started_at if state else 0.0,
                        error="cancelled",
                    ),
                    progress,
                )

    def _receive(self, state: _Running) -> None:
        """Pull the worker's report off its pipe, if one is available.

        A corrupted channel (child terminated mid-send) poisons only this
        job: the error becomes its failure message, the batch continues.
        """
        if state.message is not None or state.conn_eof:
            return
        try:
            if state.conn.poll():
                state.message = state.conn.recv()
        except EOFError:
            state.conn_eof = True
        except Exception as exc:  # noqa: BLE001 - poisoned channel
            state.message = (
                False,
                f"worker report unreadable ({type(exc).__name__}: {exc})",
            )

    def _poll(self, state: _Running, now: float) -> Optional[JobOutcome]:
        """Settle one running job if it has finished, crashed or timed out."""
        self._receive(state)
        elapsed = now - state.started_at
        if state.message is not None:
            state.process.join(timeout=5.0)
            return _reported(state.job, state.message, elapsed)
        if state.deadline is not None and now > state.deadline:
            _terminate(state.process)
            LOG.log(
                "worker.timeout",
                level="warning",
                trace=getattr(state.job, "trace_id", ""),
                key=state.job.content_hash,
                timeout_s=self.job_timeout,
            )
            return JobOutcome(
                job=state.job,
                status="timeout",
                runtime=elapsed,
                error=f"timed out after {self.job_timeout:.1f}s",
                trace_id=getattr(state.job, "trace_id", ""),
            )
        if not state.process.is_alive():
            # Died without a message so far.  The result may still be in
            # flight through the queue's feeder pipe, so allow a short
            # grace period before declaring a crash (segfault, os._exit,
            # OOM kill).
            if state.dead_since is None:
                state.dead_since = now
                return None
            if now - state.dead_since < _CRASH_GRACE:
                return None
            LOG.log(
                "worker.crashed",
                level="error",
                trace=getattr(state.job, "trace_id", ""),
                key=state.job.content_hash,
                exit_code=state.process.exitcode,
            )
            return JobOutcome(
                job=state.job,
                status="failed",
                runtime=elapsed,
                error=f"worker crashed (exit code {state.process.exitcode})",
                trace_id=getattr(state.job, "trace_id", ""),
            )
        return None

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #

    def _emit_resumed(self, job: LayoutJob, progress: Optional[ProgressCallback]) -> None:
        """Announce that the job about to run will resume from a checkpoint.

        The probe is optimistic — the worker's own (verified) checkpoint
        read stays authoritative, and the settlement-time profile is what
        the resume metrics count — but announcing it up front lets SSE
        watchers see ``resumed`` before the remaining phases run.
        """
        if self.cache is None or job.flow != "pilp":
            return
        stage = self.cache.peek_checkpoint_stage(job.content_hash)
        if stage:
            self._emit("resumed", job, detail=stage, progress=progress)

    def _cache_lookup(self, job: LayoutJob) -> Optional[JobOutcome]:
        if self.cache is None:
            return None
        entry = self.cache.get(job)
        if entry is None:
            return None
        return JobOutcome(
            job=job,
            status="cached",
            summary=dict(entry.summary),
            runtime=float(entry.summary.get("runtime_s", 0.0)),
            entry=entry,
            profile=entry.profile,
            trace_id=getattr(job, "trace_id", ""),
        )

    def _settle(
        self, outcome: JobOutcome, progress: Optional[ProgressCallback] = None
    ) -> JobOutcome:
        self._emit(
            outcome.status,
            outcome.job,
            detail=outcome.error or "",
            runtime=outcome.runtime,
            progress=progress,
        )
        return outcome

    def _emit(
        self,
        kind: str,
        job: LayoutJob,
        detail: str = "",
        runtime: float = 0.0,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        callbacks = [cb for cb in (self.progress, progress) if cb is not None]
        if not callbacks:
            return
        event = ProgressEvent(
            kind=kind,
            job_key=job.content_hash[:12],
            label=job.describe(),
            detail=detail,
            runtime=runtime,
        )
        for callback in callbacks:
            callback(event)


def _wait_for_change(running: Iterable[_Running]) -> None:
    """Block until some running job may have something to settle.

    Wakes on a report (or EOF) on a job's pipe, on a child's exit, at the
    nearest per-job deadline, or when a silent dead child's crash grace
    ends.  A handle already known to be ready is left out — a pipe at EOF,
    the sentinel of a child in its grace — so the caller's loop never
    spins.
    """
    handles: List[object] = []
    wake_at: List[float] = []
    for state in running:
        if state.message is None and not state.conn_eof:
            handles.append(state.conn)
        if state.deadline is not None:
            wake_at.append(state.deadline)
        if state.dead_since is None:
            handles.append(state.process.sentinel)
        else:
            wake_at.append(state.dead_since + _CRASH_GRACE)
    timeout = max(0.0, min(wake_at) - time.perf_counter()) if wake_at else None
    multiprocessing.connection.wait(handles, timeout)


class _StopBatch(Exception):
    """Internal control-flow signal: ``stop_when`` fired."""


def _terminate(process: multiprocessing.Process) -> None:
    if process.is_alive():
        process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - stubborn child
            process.kill()
            process.join(timeout=2.0)


class BatchRunner:
    """Facade bundling a result cache with worker-pool settings.

    This is the object the CLI and the experiment harnesses hold on to:
    construct once, submit batches through :meth:`run`.  A single runner
    may be shared by several threads (see the module docstring); the
    layout service does so, handing each dispatcher its own per-call
    ``progress`` callback.

    ``cache_dir`` also accepts an existing :class:`ResultCache` instance,
    so a runner can share one cache — and one set of hit/miss counters —
    with the code that owns it.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[PathLike, ResultCache]] = None,
        workers: Optional[int] = None,
        job_timeout: Optional[float] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if isinstance(cache_dir, ResultCache):
            self.cache: Optional[ResultCache] = cache_dir
        else:
            self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.pool = WorkerPool(
            workers=workers, job_timeout=job_timeout, cache=self.cache, progress=progress
        )

    @property
    def workers(self) -> int:
        return self.pool.workers

    def run(
        self,
        jobs: Sequence[LayoutJob],
        stop_when: Optional[StopPredicate] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[JobOutcome]:
        """Run a batch of jobs (see :meth:`WorkerPool.run`)."""
        return self.pool.run(jobs, stop_when=stop_when, progress=progress)

    def run_one(
        self, job: LayoutJob, progress: Optional[ProgressCallback] = None
    ) -> JobOutcome:
        """Run a single job.

        ``progress`` receives the same :class:`ProgressEvent` stream a
        batch run emits (``submitted``/``started``/``completed``/...), so
        single-job callers — the layout service's SSE feed in particular —
        observe the identical lifecycle without constructing a batch.
        """
        return self.run([job], progress=progress)[0]

    def cache_stats(self) -> Dict[str, object]:
        """Hit/miss/store counters (zeros when no cache is configured)."""
        return self.cache.stats.as_dict() if self.cache is not None else {}
