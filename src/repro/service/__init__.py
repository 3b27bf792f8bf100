"""repro.service — the persistent layout-generation service.

The service turns the PR 3 batch runner into an always-on daemon
(``rfic-layout serve``): jobs are submitted over HTTP as JSON documents,
journaled to disk so they survive crashes and restarts, deduplicated
against in-flight work and the content-addressed result cache, dispatched
through the shared worker pool with priority classes and per-client
fairness, and observable live via Server-Sent Events.

Layering (each module only depends on the ones above it):

* :mod:`repro.service.documents` — wire format: job/sweep documents that
  hash identically to the :class:`~repro.runner.jobs.LayoutJob` they
  describe.
* :mod:`repro.service.queue` — durability: the append-only JSON-lines
  journal with atomic rotation and exactly-once settlement.
* :mod:`repro.service.telemetry` — metrics: counters, histograms and the
  SLO verdict behind ``/metrics``, ``/stats`` and ``/slo``.
* :mod:`repro.service.scheduler` — policy: admission, cache
  short-circuiting, fairness, dispatch over the re-entrant
  :class:`~repro.runner.pool.BatchRunner`, the event bus.
* :mod:`repro.service.http` — transport: the stdlib HTTP/SSE API.
* :mod:`repro.service.client` / :mod:`repro.service.daemon` — consumers:
  the Python client + :class:`RemoteRunner` adapter, and the assembled
  daemon the CLI boots.

Invariants (documented in ROADMAP.md): the journal is append-only between
rotations and rotation is staging-rename atomic; settlement is
exactly-once, keyed by the PR 3 content hash; a settled hash is served
from the result cache, never re-solved.
"""

from repro.service.client import (
    CircuitOpenError,
    RemoteRunner,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.daemon import DEFAULT_DATA_DIR, LayoutService
from repro.service.documents import (
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    config_from_dict,
    config_to_dict,
    expand_submission,
    job_from_document,
    job_to_document,
    sweep_from_document,
)
from repro.service.http import (
    LayoutHTTPServer,
    TERMINAL_EVENT_KINDS,
    make_server,
)
from repro.service.queue import (
    JOB_STATES,
    JobQueue,
    JobRecord,
    TERMINAL_STATES,
)
from repro.service.scheduler import (
    EventBus,
    LayoutScheduler,
    QueueSaturated,
    ServiceDraining,
    Subscription,
)

__all__ = [
    "CircuitOpenError",
    "DEFAULT_DATA_DIR",
    "DEFAULT_PRIORITY",
    "EventBus",
    "JOB_STATES",
    "JobQueue",
    "JobRecord",
    "LayoutHTTPServer",
    "LayoutScheduler",
    "LayoutService",
    "PRIORITY_CLASSES",
    "QueueSaturated",
    "RemoteRunner",
    "RetryPolicy",
    "ServiceClient",
    "ServiceDraining",
    "ServiceError",
    "ServiceUnavailableError",
    "Subscription",
    "TERMINAL_EVENT_KINDS",
    "TERMINAL_STATES",
    "config_from_dict",
    "config_to_dict",
    "expand_submission",
    "job_from_document",
    "job_to_document",
    "make_server",
    "sweep_from_document",
]
