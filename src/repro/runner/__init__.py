"""repro.runner — parallel batch layout generation with result caching.

The runner turns single layout runs into reproducible *batches*: jobs with
canonical content hashes (:mod:`repro.runner.jobs`), a content-addressed
disk cache of results (:mod:`repro.runner.cache`), a crash-isolated
multiprocessing pool (:mod:`repro.runner.pool`) and parameter-grid
scenario sweeps (:mod:`repro.runner.sweep`).  The ``rfic-layout batch``
CLI subcommand and the Table 1 / Figure 11 harnesses are built on it.

Batch example
-------------
    from repro.circuits import get_circuit
    from repro.core import PILPConfig
    from repro.runner import BatchRunner, LayoutJob

    config = PILPConfig.fast()
    jobs = [
        LayoutJob(flow="pilp", netlist=get_circuit(name).netlist, config=config)
        for name in ("lna94", "buffer60", "lna60")
    ]
    runner = BatchRunner(cache_dir=".rfic-cache", workers=3, job_timeout=600)
    outcomes = runner.run(jobs)          # parallel; instant on re-runs (cache)
    layouts = [o.flow_result().layout for o in outcomes if o.ok]

Invariants
----------
* The cache is **append-only** and **content-addressed**: an entry's key is
  the SHA-256 of the canonical job document (netlist document + flow +
  config + code-version salt), which fully determines the result.  Element
  list order stays in the hash because the flows are order-sensitive.
* Jobs are deterministic: every random choice (force-directed seed
  placement, generator jitter) is derived from seeds that participate in
  the hash.
"""

from repro.runner.jobs import (
    GeneratorSpec,
    JOB_FLOWS,
    LayoutJob,
    RUNNER_SCHEMA_VERSION,
    canonical_netlist_dict,
    code_version_salt,
)
from repro.runner.cache import CachedResult, CacheStats, ResultCache
from repro.runner.pool import (
    BatchRunner,
    JobOutcome,
    ProgressEvent,
    WorkerPool,
)
from repro.runner.sweep import (
    SweepSpec,
    amplifier_spec_for,
    generate_sweep,
    scenario_name,
)

__all__ = [
    "LayoutJob",
    "GeneratorSpec",
    "JOB_FLOWS",
    "RUNNER_SCHEMA_VERSION",
    "canonical_netlist_dict",
    "code_version_salt",
    "ResultCache",
    "CachedResult",
    "CacheStats",
    "BatchRunner",
    "WorkerPool",
    "JobOutcome",
    "ProgressEvent",
    "SweepSpec",
    "amplifier_spec_for",
    "generate_sweep",
    "scenario_name",
]
