"""Wire representation of layout jobs (and sweeps) for the service.

The HTTP API, the durable journal and the Python client all exchange jobs
as plain JSON documents.  A job document is the *submission* form of a
:class:`~repro.runner.jobs.LayoutJob`:

.. code-block:: json

    {
      "flow": "pilp",
      "netlist": { ... canonical netlist document ... },
      "config": { ... asdict(PILPConfig) ... },
      "label": "buffer60:pilp",
      "tag": ""
    }

with ``"generator": {"circuit": ..., "variant": ..., "area": [w, h],
"seed": ...}`` as the lazy alternative to an inline ``"netlist"``.  The
document deliberately carries exactly the fields that participate in the
content hash (plus the cosmetic ``label``), so a job that round-trips
through a document — over HTTP, or through the journal and a daemon
restart — hashes identically to the original and therefore settles against
the same cache entry.

A *sweep* document wraps a :class:`~repro.runner.sweep.SweepSpec` grid
instead and expands server-side into one job document per grid point.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Mapping, Optional

from repro.circuit.loader import netlist_from_dict, netlist_to_dict
from repro.core.config import ObjectiveWeights, PhaseSettings, PILPConfig
from repro.errors import ConfigurationError
from repro.runner.jobs import GeneratorSpec, JOB_FLOWS, LayoutJob
from repro.runner.sweep import SweepSpec, generate_sweep

#: Admission priority classes, best first.  ``interactive`` jobs preempt
#: the ``batch`` backlog at dispatch time (never mid-solve); ``background``
#: jobs only run when nothing better is queued.
PRIORITY_CLASSES = ("interactive", "batch", "background")

DEFAULT_PRIORITY = "batch"
DEFAULT_CLIENT = "anonymous"


def config_to_dict(config: PILPConfig) -> Dict[str, object]:
    """JSON-able form of a :class:`PILPConfig` (plain ``asdict``)."""
    return asdict(config)


def config_from_dict(data: Optional[Mapping[str, object]]) -> PILPConfig:
    """Rebuild a :class:`PILPConfig` from its ``asdict`` document.

    An empty / missing document means the default configuration.  Unknown
    fields raise :class:`ConfigurationError` (they would silently change
    the content hash's meaning if ignored).
    """
    if not data:
        return PILPConfig()
    payload = dict(data)
    kwargs: Dict[str, object] = {}
    try:
        weights = payload.pop("weights", None)
        if weights is not None:
            kwargs["weights"] = ObjectiveWeights(**dict(weights))
        for name in ("phase1", "phase2", "phase3", "exact"):
            phase = payload.pop(name, None)
            if phase is not None:
                kwargs[name] = PhaseSettings(**dict(phase))
        kwargs.update(payload)
        return PILPConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad config document: {exc}") from None


def _generator_to_dict(generator: GeneratorSpec) -> Dict[str, object]:
    return {
        "circuit": generator.circuit,
        "variant": generator.variant,
        "area": list(generator.area) if generator.area is not None else None,
        "seed": generator.seed,
    }


def _generator_from_dict(data: Mapping[str, object]) -> GeneratorSpec:
    if "circuit" not in data:
        raise ConfigurationError("generator document needs a 'circuit' name")
    area = data.get("area")
    return GeneratorSpec(
        circuit=str(data["circuit"]),
        variant=data.get("variant"),
        area=tuple(float(value) for value in area) if area is not None else None,
        seed=int(data["seed"]) if data.get("seed") is not None else None,
    )


def job_to_document(job: LayoutJob) -> Dict[str, object]:
    """The JSON submission document of a job.

    Generator jobs stay lazy (the tiny recipe travels, not the netlist);
    explicit netlists are embedded as their canonical document.  Rebuilding
    the job with :func:`job_from_document` yields the same content hash.
    """
    document: Dict[str, object] = {
        "flow": job.flow,
        "config": config_to_dict(job.config),
        "label": job.label,
        "tag": job.tag,
    }
    if job.generator is not None:
        document["generator"] = _generator_to_dict(job.generator)
    else:
        document["netlist"] = netlist_to_dict(job.netlist)
    return document


def job_from_document(document: Mapping[str, object]) -> LayoutJob:
    """Rebuild a runnable :class:`LayoutJob` from a submission document."""
    if not isinstance(document, Mapping):
        raise ConfigurationError("job document must be a JSON object")
    flow = str(document.get("flow", "pilp"))
    if flow not in JOB_FLOWS:
        raise ConfigurationError(f"unknown job flow {flow!r}; available: {JOB_FLOWS}")
    netlist_doc = document.get("netlist")
    generator_doc = document.get("generator")
    if (netlist_doc is None) == (generator_doc is None):
        raise ConfigurationError(
            "a job document needs exactly one of 'netlist' or 'generator'"
        )
    return LayoutJob(
        flow=flow,
        netlist=netlist_from_dict(netlist_doc) if netlist_doc is not None else None,
        generator=_generator_from_dict(generator_doc)
        if generator_doc is not None
        else None,
        config=config_from_dict(document.get("config")),
        label=document.get("label"),
        tag=str(document.get("tag", "")),
    )


def sweep_from_document(document: Mapping[str, object]) -> SweepSpec:
    """Rebuild a :class:`SweepSpec` from the ``"sweep"`` sub-document."""
    known = (
        "frequencies_ghz",
        "stage_counts",
        "area_scales",
        "seeds",
        "extra_branches",
        "stage_width",
        "base_height",
    )
    unknown = set(document) - set(known)
    if unknown:
        raise ConfigurationError(f"unknown sweep fields: {sorted(unknown)}")
    kwargs = {name: document[name] for name in known if name in document}
    for name in ("frequencies_ghz", "stage_counts", "area_scales", "seeds"):
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    try:
        return SweepSpec(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad sweep document: {exc}") from None


def expand_submission(document: Mapping[str, object]) -> List[Dict[str, object]]:
    """Expand one ``POST /jobs`` body into job documents.

    A plain job document expands to itself; a document with a ``"sweep"``
    key expands the grid server-side (sharing the submission's ``flow`` /
    ``config``), mirroring what ``rfic-layout batch --sweep-*`` does
    locally.
    """
    if not isinstance(document, Mapping):
        raise ConfigurationError("submission must be a JSON object")
    if "sweep" not in document:
        return [dict(document)]
    sweep = sweep_from_document(document["sweep"])
    config = config_from_dict(document.get("config"))
    flow = str(document.get("flow", "pilp"))
    return [job_to_document(job) for job in generate_sweep(sweep, config=config, flow=flow)]


def validate_priority(priority: Optional[str]) -> str:
    """Normalise/validate a submission's priority class."""
    if priority is None:
        return DEFAULT_PRIORITY
    if priority not in PRIORITY_CLASSES:
        raise ConfigurationError(
            f"unknown priority {priority!r}; available: {PRIORITY_CLASSES}"
        )
    return priority


def priority_rank(priority: str) -> int:
    """Dispatch rank of a priority class (lower dispatches first)."""
    return PRIORITY_CLASSES.index(priority)
