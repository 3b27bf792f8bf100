"""Shared pieces of the benchmark: statistics, the span tracer, provenance.

Nothing here imports ``repro``: the tracer patches the program's public
functions from outside, and only for the duration of a traced run.  The
statistics are the benchmark's own, not ``repro.loadgen.metrics``, so a
change to the program cannot change the yardstick it is measured with.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layout_digest(document: Dict[str, object]) -> str:
    """SHA-256 of an exported layout document minus ``metadata.runtime_s``.

    ``runtime_s`` is the one wall-clock field two identical solves differ
    in, so equal digests mean equal layouts.
    """
    doc = dict(document)
    metadata = dict(doc.get("metadata") or {})
    metadata.pop("runtime_s", None)
    doc["metadata"] = metadata
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def timed_subprocess(argv: List[str], env: Dict[str, str], repeats: int) -> List[float]:
    """Wall-clock of ``repeats`` runs of a short set-up program."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


class Tracer:
    """Spans around calls into the program's layers, kept in memory.

    Each span records its name, its parent, start, duration and the
    enclosing solve phase.  A layer's self time is its duration minus the
    time its child spans cover.  ``install`` swaps a function on its owner
    (class or module) for a timed wrapper; ``uninstall`` restores it.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.phase_solve_s: Dict[str, float] = {}
        self.solve_nodes = 0
        self.solve_time_limited = 0
        self._stack: List[List[object]] = []  # [name, start, child_s, phase]
        self._undo: List[tuple] = []

    @property
    def phase(self) -> str:
        for _, _, _, phase in reversed(self._stack):
            if phase:
                return str(phase)
        return "other"

    @contextmanager
    def span(self, name: str, phase: str = ""):
        start = time.perf_counter()
        frame = [name, start, 0.0, phase]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            duration = time.perf_counter() - start
            own = duration - float(frame[2])
            if self._stack:
                self._stack[-1][2] += duration
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            if name == "ilp.solve":
                key = phase or self.phase
                self.phase_solve_s[key] = self.phase_solve_s.get(key, 0.0) + own
            self.spans.append(
                {
                    "name": name,
                    "parent": self._stack[-1][0] if self._stack else None,
                    "start": round(start, 6),
                    "duration_s": round(duration, 6),
                    "self_s": round(own, 6),
                    "phase": phase or (self.phase if self._stack else ""),
                }
            )

    def install(
        self,
        owner: object,
        attr: str,
        name: str,
        phase: str = "",
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, phase):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_cost_s(self, samples: int = 20000) -> float:
        """Measured cost of one span (wrapped call minus bare call)."""
        probe = Tracer()

        def bare() -> None:
            return None

        holder = type("Holder", (), {"call": staticmethod(bare)})
        start = time.perf_counter()
        for _ in range(samples):
            holder.call()
        plain = time.perf_counter() - start
        probe.install(holder, "call", "probe")
        start = time.perf_counter()
        for _ in range(samples):
            holder.call()
        wrapped = time.perf_counter() - start
        probe.uninstall()
        return max(0.0, (wrapped - plain) / samples)


def provenance(root: Path, seed: int, extra: Dict[str, object]) -> Dict[str, object]:
    """Where and with what a result was measured."""
    import scipy
    from scipy.optimize._highspy import _core as highs

    commit = "unrecorded (not a git checkout)"
    if (root / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode("utf-8"))
        source.update(path.read_bytes())
    doc = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "highs": "{}.{}.{}".format(
            highs.HIGHS_VERSION_MAJOR, highs.HIGHS_VERSION_MINOR, highs.HIGHS_VERSION_PATCH
        ),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "host": platform.node(),
    }
    doc.update(extra)
    return doc


def rss_mb_self() -> float:
    """Peak resident set size of this process, MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vmhwm_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another process, MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
