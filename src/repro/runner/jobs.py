"""Layout job specifications with canonical content hashes.

A :class:`LayoutJob` is the unit of work of the batch runner: a netlist (or
a recipe for generating one), a flow choice and a :class:`PILPConfig`.  Its
``content_hash`` is a SHA-256 over a *canonical* JSON form of the job:

* dictionary key order never matters (keys are sorted),
* a netlist that round-trips through the JSON loader hashes identically,
* the running code version participates as a salt, so stale cache entries
  from an older flow implementation are never served.

Device / microstrip **list order deliberately stays in the hash**: the flow
heuristics (force-directed seed placement, overlap relaxation) iterate
elements in list order, so two same-content netlists in different order can
legitimately produce different layouts — order is content here, and hashing
it away would serve one ordering's cached result for the other.

The hash therefore fully determines the job's output (all flows are
deterministic given their configuration — the force-directed seed placement
is seeded from ``PILPConfig.random_seed``, which is part of the hash), which
is what makes the content-addressed result cache correct.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.errors import ConfigurationError
from repro.circuit.loader import netlist_to_dict
from repro.circuit.netlist import LayoutArea, Netlist
from repro.core.config import PILPConfig
from repro.core.result import FlowResult

#: Flows a job may request.
JOB_FLOWS = ("pilp", "exact", "manual")

#: Version of the canonical job document.  Bump when the canonical form (or
#: anything that invalidates previously cached results) changes.
RUNNER_SCHEMA_VERSION = 9


def code_version_salt() -> str:
    """Salt mixed into every job hash: package version + runner schema."""
    return f"{__version__}/runner-{RUNNER_SCHEMA_VERSION}"


def canonical_netlist_dict(netlist: Netlist) -> Dict[str, object]:
    """The JSON-able netlist document the content hash is computed over.

    JSON round-trips and dictionary key order do not change it.  Element
    *list* order is preserved on purpose: the flows consume elements in
    list order, so order is part of the job's content (see the module
    docstring) — executed input and hashed input must be the same thing.
    """
    return netlist_to_dict(netlist)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for building a benchmark netlist on demand (picklable, tiny).

    Jobs specified this way keep the submission side cheap (no netlist is
    built until :meth:`build` is called) while hashing identically to an
    equivalent job that carries the materialised netlist, because the hash
    is always computed over the *resolved* netlist.
    """

    circuit: str
    variant: Optional[str] = None
    area: Optional[Tuple[float, float]] = None
    seed: Optional[int] = None

    def build(self) -> Netlist:
        from repro.circuits import get_circuit

        area = LayoutArea(*self.area) if self.area is not None else None
        return get_circuit(self.circuit, self.variant, area=area, seed=self.seed).netlist


@dataclass
class LayoutJob:
    """One layout-generation run: netlist + flow + configuration.

    Exactly one of ``netlist`` / ``generator`` must be provided.

    Attributes
    ----------
    flow:
        ``"pilp"`` (progressive flow), ``"exact"`` (the Section-4
        model solved to its gap) or ``"manual"`` (sequential place-then-route baseline).
    config:
        Solver configuration.  The manual baseline ignores it, so it is
        excluded from the hash for ``flow="manual"`` (any config maps to the
        same cached result).
    label:
        Human-readable name used in progress events and reports; not part
        of the hash.
    tag:
        Free-form salt that *is* part of the hash.  Lets callers force
        distinct cache entries for otherwise identical jobs.
    trace_id:
        Observability correlation ID carried across the fork boundary into
        the worker.  Pure metadata: not part of the hash (``canonical_dict``
        lists its keys explicitly), so the same job submitted under two
        trace IDs still shares one cache entry.
    """

    flow: str = "pilp"
    netlist: Optional[Netlist] = None
    generator: Optional[GeneratorSpec] = None
    config: PILPConfig = field(default_factory=PILPConfig)
    label: Optional[str] = None
    tag: str = ""
    trace_id: str = ""

    def __post_init__(self) -> None:
        if self.flow not in JOB_FLOWS:
            raise ConfigurationError(
                f"unknown job flow {self.flow!r}; available: {JOB_FLOWS}"
            )
        if (self.netlist is None) == (self.generator is None):
            raise ConfigurationError(
                "a LayoutJob needs exactly one of 'netlist' or 'generator'"
            )
        self._resolved: Optional[Netlist] = None
        self._hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # resolution and hashing
    # ------------------------------------------------------------------ #

    def resolve_netlist(self) -> Netlist:
        """The netlist the job runs on (built once for generator jobs)."""
        if self._resolved is None:
            self._resolved = (
                self.netlist if self.netlist is not None else self.generator.build()
            )
        return self._resolved

    def canonical_dict(self) -> Dict[str, object]:
        """The canonical (hash-defining) document of this job."""
        return {
            "schema": RUNNER_SCHEMA_VERSION,
            "code_version": code_version_salt(),
            "flow": self.flow,
            "tag": self.tag,
            "config": None if self.flow == "manual" else asdict(self.config),
            "netlist": canonical_netlist_dict(self.resolve_netlist()),
        }

    @property
    def content_hash(self) -> str:
        """SHA-256 hex digest of the canonical job document (cached)."""
        if self._hash is None:
            document = json.dumps(
                self.canonical_dict(), sort_keys=True, separators=(",", ":")
            )
            self._hash = hashlib.sha256(document.encode("utf-8")).hexdigest()
        return self._hash

    # ------------------------------------------------------------------ #
    # descriptive helpers
    # ------------------------------------------------------------------ #

    @property
    def circuit_name(self) -> str:
        if self.netlist is not None:
            return self.netlist.name
        return self.generator.circuit

    def describe(self) -> str:
        """Display label (explicit label or ``circuit:flow``)."""
        return self.label or f"{self.circuit_name}:{self.flow}"

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, checkpoint=None) -> FlowResult:
        """Execute the job in the current process and return its result.

        ``checkpoint`` is an optional
        :class:`~repro.core.checkpoint.CheckpointSink`: the progressive
        flow saves per-phase state through it and resumes from a stored
        checkpoint when one exists.  The single-shot flows ignore it —
        they have no phase boundaries to resume at.
        """
        netlist = self.resolve_netlist()
        if self.flow == "pilp":
            from repro.core.pilp import PILPLayoutGenerator

            return PILPLayoutGenerator(self.config).generate(
                netlist, checkpoint=checkpoint
            )
        if self.flow == "exact":
            from repro.core.exact import ExactLayoutGenerator

            return ExactLayoutGenerator(self.config).generate(netlist)
        from repro.baselines.manual_like import ManualLikeFlow

        return ManualLikeFlow().generate(netlist)
