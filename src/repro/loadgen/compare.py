"""Snapshot diff engine: turn the ``BENCH_*.json`` trajectory into a gate.

PR 7 made perf claims *diffable*; this module makes them *enforceable*.
:func:`compare_snapshots` loads two ``rfic-bench`` envelopes, walks their
``data`` trees, and classifies every numeric series by what kind of
number it is — because the tolerance that keeps CI honest for a counter
would flake constantly for a timing:

``counter``
    Invariant bookkeeping that must match to the unit on a same-plan
    re-run: reconciliation ``ok`` flags, lost jobs, submit errors,
    failures, journal drops, supervision counters.  Any drift is a
    ``regression`` — these numbers have no noise.
``plan``
    The workload identity (``spec``/``config`` subtrees).  A mismatch
    means the two snapshots measured *different experiments*; that is a
    ``warn`` for ad-hoc diffing and a gate failure under ``--gate``.
``latency``
    Lower-is-better timings (latency percentiles, wall clocks, stage
    sums, benchmark ``timings_s``).  Compared by ratio with a noise
    floor: values where both sides sit under the floor are scheduler
    jitter, not signal.  ``warn`` on moderate drift, ``regression``
    only on order-of-magnitude drift — generous on purpose, so a CI
    runner that is 2x slower than the baseline machine never flakes.
``throughput``
    Higher-is-better rates (``*_per_s``); the inverse ratio of latency.
``info``
    Everything else — scheduling-timing-dependent numbers such as the
    attach/cache disposition split, queue-depth peaks, SSE event
    counts, cache hit rates.  Reported (large drifts are worth eyes)
    but never gated: two correct runs of the same plan legitimately
    disagree about them.

The report is machine-readable (:meth:`DiffReport.to_dict`) and
human-readable (:meth:`DiffReport.to_text`); the CLI surface is
``rfic-layout bench diff BASELINE CURRENT [--gate] [--json]``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.loadgen.snapshot import load_snapshot

__all__ = [
    "DiffEntry",
    "DiffReport",
    "compare_snapshots",
    "diff_snapshot_files",
]

PathLike = Union[str, Path]

#: Verdict severity order (worst wins for the report-level verdict).
_SEVERITY = {"ok": 0, "warn": 1, "regression": 2}


# Noise-aware tolerances, one pair per timing-shaped class.  The fail
# ratios are deliberately generous (order of magnitude): the gate exists to
# catch a 10x latency regression merging green, not to litigate
# machine-to-machine variance.  Counters get no tolerance at all — they are
# exact by contract.
LATENCY_WARN_RATIO = 2.0
LATENCY_FAIL_RATIO = 10.0
THROUGHPUT_WARN_RATIO = 2.0
THROUGHPUT_FAIL_RATIO = 10.0
#: Timings where *both* sides sit at or under this are noise, not signal
#: (sub-5ms scheduling jitter ratios wildly run to run).
LATENCY_FLOOR_S = 0.005
#: Throughputs where both sides sit under this are likewise ignored.
THROUGHPUT_FLOOR = 0.01


@dataclass
class DiffEntry:
    """One compared numeric series."""

    path: str
    metric_class: str  # counter | plan | latency | throughput | info
    baseline: Optional[float]
    current: Optional[float]
    verdict: str  # ok | warn | regression
    ratio: Optional[float] = None  # current/baseline for timings
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "path": self.path,
            "class": self.metric_class,
            "baseline": self.baseline,
            "current": self.current,
            "verdict": self.verdict,
        }
        if self.ratio is not None and math.isfinite(self.ratio):
            doc["ratio"] = round(self.ratio, 4)
        if self.note:
            doc["note"] = self.note
        return doc


@dataclass
class DiffReport:
    """Everything one snapshot comparison concluded."""

    name: str
    baseline_ref: str
    current_ref: str
    entries: List[DiffEntry] = field(default_factory=list)
    provenance_warnings: List[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        worst = "ok"
        for entry in self.entries:
            if _SEVERITY[entry.verdict] > _SEVERITY[worst]:
                worst = entry.verdict
        return worst

    @property
    def plan_mismatch(self) -> bool:
        """Whether the two snapshots measured different experiments."""
        return any(
            e.metric_class == "plan" and e.verdict != "ok" for e in self.entries
        )

    def gate_verdict(self, gate: bool = False) -> str:
        """The verdict CI acts on.

        ``regression`` always gates.  Under ``--gate`` a plan mismatch
        gates too: a baseline comparison against a *different workload*
        proves nothing, and CI silently passing on it would be worse
        than failing loudly.
        """
        verdict = self.verdict
        if gate and verdict != "regression" and self.plan_mismatch:
            return "regression"
        return verdict

    def counts(self) -> Dict[str, int]:
        tally = {"ok": 0, "warn": 0, "regression": 0}
        for entry in self.entries:
            tally[entry.verdict] += 1
        return tally

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "baseline": self.baseline_ref,
            "current": self.current_ref,
            "verdict": self.verdict,
            "plan_mismatch": self.plan_mismatch,
            "counts": self.counts(),
            "provenance_warnings": list(self.provenance_warnings),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def to_text(self, show_ok: bool = False) -> str:
        """Human-readable table: the non-ok entries, worst first."""
        lines = [
            f"bench diff [{self.name}]: {self.baseline_ref} -> {self.current_ref}"
        ]
        for warning in self.provenance_warnings:
            lines.append(f"  ! {warning}")
        shown = [
            e for e in self.entries if show_ok or e.verdict != "ok" or e.note
        ]
        shown.sort(key=lambda e: (-_SEVERITY[e.verdict], e.path))
        if shown:
            width = max(len(e.path) for e in shown)
            for entry in shown:
                ratio = (
                    f" ({entry.ratio:.2f}x)"
                    if entry.ratio is not None and math.isfinite(entry.ratio)
                    else ""
                )
                note = f"  [{entry.note}]" if entry.note else ""
                lines.append(
                    f"  {entry.verdict.upper():>10}  {entry.path:<{width}}  "
                    f"{_fmt(entry.baseline)} -> {_fmt(entry.current)}"
                    f"{ratio}{note}"
                )
        tally = self.counts()
        lines.append(
            f"verdict: {self.verdict.upper()} "
            f"({tally['regression']} regression(s), {tally['warn']} warning(s), "
            f"{tally['ok']} ok)"
        )
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.6g}"


# ---------------------------------------------------------------------- #
# classification
# ---------------------------------------------------------------------- #

#: First matching rule wins; evaluated against the dotted leaf path.
_CLASS_RULES: Tuple[Tuple[str, str], ...] = (
    # Not comparable at all: timestamps, per-sample timelines, hints.
    (r"(^|\.)(created_unix|.*_unix)$", "ignore"),
    (r"(^|\.)queue_depth\.samples(\.|$)", "ignore"),
    (r"(^|\.)trace_sample(\.|$)", "ignore"),
    (r"(^|\.)uptime_s$", "ignore"),
    (r"(^|\.)retry_after_hint_s$", "ignore"),
    # Workload identity: a mismatch means different experiments.
    (r"^(spec|config|context)(\.|$)", "plan"),
    # Hard invariants of a correct run — exact on any plan re-run.  Note
    # the reconciliation subtree: its *.ok flags are invariant (caught by
    # the rule below), but the client/server tallies they compare are
    # timing-dependent dispositions and fall through to "info".
    (r"(^|\.)ok$", "counter"),
    (r"(^|\.)(lost_jobs|submit_errors)(\.len)?$", "counter"),
    (r"(^|\.)(failures|journal_dropped_lines)$", "counter"),
    (r"(^|\.)jobs\.(failed|timeout|cancelled)$", "counter"),
    (r"(^|\.)(dispatcher_restarts|poisoned|crash_retries|put_errors"
     r"|journal_write_errors|watchers_stalled)$", "counter"),
    # A healthy load run never trips cache integrity: any quarantined
    # entry means corruption was detected mid-run — exact, gated.
    (r"(^|\.)cache\.quarantined$", "counter"),
    # Checkpoint/resume tallies depend on crash timing (which worker died
    # where), so they are real numbers but never comparable across runs;
    # the whole subtree is informational, including its histogram
    # sum_s/mean_s leaves that would otherwise classify as latency.
    (r"(^|\.)resumes(\.|$)", "info"),
    # Throughput before the generic latency rules: "per second" rates.
    (r"_per_s$", "throughput"),
    # Tail samples of a latency summary (max, and p99 at CI sample sizes
    # is effectively the max) are a single worst observation: one GC
    # pause moves them >10x between correct same-plan runs, so gating
    # them flakes.  The gate rides mean/p50/p95 instead.
    (r"(^|\.)[a-z_]*(latency|lag|wall)[a-z_]*_s\.(max|p99)$", "info"),
    # Latency-shaped: summary stats inside *_s subtrees, wall clocks,
    # benchmark timings, histogram sums/means.
    (r"(^|\.)timings_s\.", "latency"),
    (r"(^|\.)[a-z_]*(latency|lag|wall)[a-z_]*_s"
     r"(\.(mean|min|p50|p95))?$", "latency"),
    (r"(^|\.)(stages?_s\.[a-z_]+\.)?(sum_s|mean_s)$", "latency"),
    # Sample counts, disposition splits, cache hit rates, SSE tallies:
    # real numbers, timing-dependent — reported, never gated.
    (r".*", "info"),
)

_COMPILED_RULES = tuple(
    (re.compile(pattern), cls) for pattern, cls in _CLASS_RULES
)


def classify(path: str) -> str:
    """Metric class of one dotted leaf path (see module docstring)."""
    for pattern, cls in _COMPILED_RULES:
        if pattern.search(path):
            return cls
    return "info"  # unreachable: the final rule matches everything


# ---------------------------------------------------------------------- #
# tree walking
# ---------------------------------------------------------------------- #


def _numeric_leaves(node: object, prefix: str = "") -> Dict[str, float]:
    """Flatten ``data`` to ``{dotted.path: float}``.

    Booleans become 0/1 (so ``ok`` flags diff like counters), lists
    contribute their *length* under ``<path>.len`` (so ``lost_jobs``
    stays assertable without diffing per-sample timelines), and
    strings/nulls are skipped — they are annotations, not measurements.
    """
    leaves: Dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(_numeric_leaves(value, path))
    elif isinstance(node, bool):
        leaves[prefix] = 1.0 if node else 0.0
    elif isinstance(node, (int, float)):
        if math.isfinite(float(node)):
            leaves[prefix] = float(node)
    elif isinstance(node, list):
        leaves[f"{prefix}.len"] = float(len(node))
    return leaves


# ---------------------------------------------------------------------- #
# per-class verdicts
# ---------------------------------------------------------------------- #


def _verdict_exact(path: str, cls: str, base: float, cur: float) -> DiffEntry:
    if base == cur:
        return DiffEntry(path, cls, base, cur, "ok")
    note = (
        "plan differs: not the same experiment"
        if cls == "plan"
        else "invariant counter drifted"
    )
    verdict = "warn" if cls == "plan" else "regression"
    return DiffEntry(path, cls, base, cur, verdict, note=note)


def _verdict_ratio(
    path: str,
    cls: str,
    base: float,
    cur: float,
    floor: float,
    warn_ratio: float,
    fail_ratio: float,
    lower_is_better: bool,
) -> DiffEntry:
    if base <= floor and cur <= floor:
        return DiffEntry(path, cls, base, cur, "ok", note="under noise floor")
    # The ratio in the *bad* direction: >1 means worse either way.
    worse = (
        max(cur, floor) / max(base, floor)
        if lower_is_better
        else max(base, floor) / max(cur, floor)
    )
    ratio = cur / base if base > 0 else math.inf
    if worse >= fail_ratio:
        return DiffEntry(
            path, cls, base, cur, "regression", ratio=ratio,
            note=f"{worse:.1f}x worse (limit {fail_ratio:g}x)",
        )
    if worse >= warn_ratio:
        return DiffEntry(
            path, cls, base, cur, "warn", ratio=ratio,
            note=f"{worse:.1f}x worse",
        )
    note = ""
    if worse > 0 and 1.0 / worse >= warn_ratio:
        note = "improved"
    return DiffEntry(path, cls, base, cur, "ok", ratio=ratio, note=note)


def _verdict_info(path: str, base: float, cur: float) -> DiffEntry:
    if base == cur:
        return DiffEntry(path, "info", base, cur, "ok")
    ratio = cur / base if base else None
    return DiffEntry(
        path, "info", base, cur, "ok", ratio=ratio,
        note="not gated (timing-dependent)",
    )


# ---------------------------------------------------------------------- #
# the comparator
# ---------------------------------------------------------------------- #


def compare_snapshots(
    baseline: Dict[str, object],
    current: Dict[str, object],
    baseline_ref: str = "baseline",
    current_ref: str = "current",
) -> DiffReport:
    """Compare two loaded ``rfic-bench`` envelopes; returns the report.

    Both arguments are full envelopes as returned by
    :func:`~repro.loadgen.snapshot.load_snapshot` — the envelope's
    provenance fields (``host``/``platform``) feed the cross-machine
    warning, the ``data`` trees feed the metric diff.
    """
    report = DiffReport(
        name=str(current.get("name", "?")),
        baseline_ref=baseline_ref,
        current_ref=current_ref,
    )
    if baseline.get("name") != current.get("name"):
        report.entries.append(DiffEntry(
            "<envelope>.name", "plan", None, None, "warn",
            note=(
                f"different snapshots: {baseline.get('name')!r} vs "
                f"{current.get('name')!r}"
            ),
        ))
    for field_name in ("host", "platform"):
        base_value = baseline.get(field_name)
        cur_value = current.get(field_name)
        # Absent provenance (pre-provenance snapshots) reads as None and
        # warns once: timings across unknown machines deserve suspicion.
        if base_value != cur_value:
            report.provenance_warnings.append(
                f"{field_name} differs ({base_value or 'unrecorded'} vs "
                f"{cur_value or 'unrecorded'}): timing classes are "
                "cross-machine, expect drift"
            )
    base_leaves = _numeric_leaves(baseline.get("data") or {})
    cur_leaves = _numeric_leaves(current.get("data") or {})
    for path in sorted(set(base_leaves) | set(cur_leaves)):
        cls = classify(path)
        if cls == "ignore":
            continue
        base_value = base_leaves.get(path)
        cur_value = cur_leaves.get(path)
        if base_value is None or cur_value is None:
            side = "baseline" if base_value is None else "current"
            verdict = "warn" if cls in ("counter", "plan") else "ok"
            report.entries.append(DiffEntry(
                path, cls, base_value, cur_value, verdict,
                note=f"missing in {side}",
            ))
            continue
        if cls in ("counter", "plan"):
            report.entries.append(_verdict_exact(path, cls, base_value, cur_value))
        elif cls == "latency":
            report.entries.append(_verdict_ratio(
                path, cls, base_value, cur_value,
                LATENCY_FLOOR_S,
                LATENCY_WARN_RATIO,
                LATENCY_FAIL_RATIO,
                lower_is_better=True,
            ))
        elif cls == "throughput":
            report.entries.append(_verdict_ratio(
                path, cls, base_value, cur_value,
                THROUGHPUT_FLOOR,
                THROUGHPUT_WARN_RATIO,
                THROUGHPUT_FAIL_RATIO,
                lower_is_better=False,
            ))
        else:
            report.entries.append(_verdict_info(path, base_value, cur_value))
    return report


def diff_snapshot_files(baseline: PathLike, current: PathLike) -> DiffReport:
    """Load two snapshot files (or bare names) and compare them."""
    return compare_snapshots(
        load_snapshot(baseline),
        load_snapshot(current),
        baseline_ref=str(baseline),
        current_ref=str(current),
    )
