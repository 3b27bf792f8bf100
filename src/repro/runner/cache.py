"""Disk-backed, content-addressed store of layout-generation results.

Every completed :class:`~repro.runner.jobs.LayoutJob` is stored under
``<root>/<hash[:2]>/<hash[2:]>/`` as three documents:

* ``layout.json`` — the final layout (netlist embedded, self-contained),
* ``metrics.json`` — the flow's summary row plus per-phase summaries,
* ``manifest.json`` — job provenance: flow, circuit, code-version salt,
  configuration, timestamps.

The store is **append-only**: entries are written to a temporary directory
and atomically renamed into place, and an existing entry is never replaced
(first writer wins; concurrent writers of the same hash produced the same
bytes anyway, because the hash fully determines the result).  Corrupt or
partial entries are treated as misses.

Two subsystems ride the same staging + atomic-rename discipline:

* **Integrity** — the manifest records a SHA-256 digest per artifact,
  every read re-verifies them, and a mismatch (bit rot, torn write) moves
  the entry to ``<root>/quarantine/`` and reads as a miss — a corrupt
  entry is *never served*.  :meth:`ResultCache.scrub` walks the whole
  store the same way.
* **Checkpoints** — keyed *partial* entries under ``<root>/partial/``
  holding a :class:`~repro.core.checkpoint.SolveCheckpoint`, self-digested
  and salted with the code version, so a crashed solve resumes at the next
  phase instead of restarting (see :class:`SolveCheckpointer`).  A torn or
  stale checkpoint is discarded and counted — resume degrades to a cold
  solve, never to an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.core.checkpoint import CheckpointSink, SolveCheckpoint
from repro.core.result import FlowResult
from repro.faults import FAULTS
from repro.layout.drc import run_drc
from repro.layout.export_json import load_layout, save_layout
from repro.layout.metrics import compute_metrics
from repro.runner.jobs import LayoutJob, code_version_salt

PathLike = Union[str, Path]

LAYOUT_FILE = "layout.json"
METRICS_FILE = "metrics.json"
MANIFEST_FILE = "manifest.json"
CHECKPOINT_FILE = "checkpoint.json"
QUARANTINE_NOTE_FILE = "quarantine.json"

#: Staging leftovers older than this are considered orphaned (their
#: writer was killed mid-write) and are swept on the next store.  The age
#: of a staging *directory* is the newest mtime anywhere inside it: a
#: writer that has been streaming documents for a while keeps its staging
#: dir alive through the files it touches, even though the directory inode
#: itself went stale at creation time.
STALE_STAGING_SECONDS = 3600.0


@dataclass
class CacheStats:
    """Hit / miss / store counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    put_errors: int = 0  #: stores that failed on disk (ENOSPC, EIO, ...)
    quarantined: int = 0  #: entries that failed verify-on-read and were moved
    checkpoint_writes: int = 0  #: partial entries durably written
    checkpoint_write_errors: int = 0  #: contained checkpoint store failures
    checkpoint_hits: int = 0  #: checkpoint loads that produced a resume
    checkpoint_corrupt: int = 0  #: torn / stale checkpoints discarded

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Raw counters plus the (rounded) derived rate.

        The raw counts always accompany ``hit_rate``: the rate alone loses
        information to rounding (49/100 and 0/0 both read ``0.49``/``0.0``
        shorn of their denominators), and consumers such as the batch JSON
        footer and the service's ``GET /stats`` aggregate across processes.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "stores": self.stores,
            "put_errors": self.put_errors,
            "quarantined": self.quarantined,
            "checkpoint_writes": self.checkpoint_writes,
            "checkpoint_write_errors": self.checkpoint_write_errors,
            "checkpoint_hits": self.checkpoint_hits,
            "checkpoint_corrupt": self.checkpoint_corrupt,
            "hit_rate": round(self.hit_rate, 3),
        }


@dataclass
class CachedResult:
    """A cache entry: paths plus the stored summary and manifest."""

    key: str
    directory: Path
    manifest: Dict[str, object]
    summary: Dict[str, object] = field(default_factory=dict)
    #: Per-stage cost breakdown stored with the entry (absent in entries
    #: written before profiles existed — treat ``None`` as "not recorded").
    profile: Optional[Dict[str, object]] = None

    @property
    def layout_path(self) -> Path:
        return self.directory / LAYOUT_FILE

    def flow_result(self) -> FlowResult:
        """Rebuild a :class:`FlowResult` from the stored layout.

        Metrics and the DRC report are recomputed from the layout (both are
        deterministic functions of it); the recorded wall-clock runtime of
        the original run is preserved.  Per-phase diagnostics are not
        reconstructed (``phases`` is empty).
        """
        layout = load_layout(self.layout_path)
        return FlowResult(
            flow=str(self.manifest.get("flow", "")),
            circuit=layout.netlist.name,
            layout=layout,
            metrics=compute_metrics(layout),
            drc=run_drc(layout),
            runtime=float(self.summary.get("runtime_s", 0.0)),
        )


class ResultCache:
    """Content-addressed result store rooted at a directory."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        #: Message of the most recent failed store, or ``None``.  Cleared
        #: by the next successful store, so it doubles as a "cache is
        #: currently writable" health flag.
        self.last_put_error: Optional[str] = None

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #

    def entry_dir(self, key: str) -> Path:
        """Directory an entry with the given content hash lives in."""
        return self.root / key[:2] / key[2:]

    @staticmethod
    def _is_complete(directory: Path) -> bool:
        return all(
            (directory / name).is_file()
            for name in (LAYOUT_FILE, METRICS_FILE, MANIFEST_FILE)
        )

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #

    def get(self, job: LayoutJob) -> Optional[CachedResult]:
        """Look a job up; returns ``None`` (and counts a miss) if absent."""
        entry = self.peek(job)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def peek(self, job: LayoutJob) -> Optional[CachedResult]:
        """Like :meth:`get` but without touching the hit/miss counters."""
        return self.peek_key(job.content_hash)

    def peek_key(self, key: str) -> Optional[CachedResult]:
        """Look an entry up by raw content hash (counters untouched).

        This is what the layout service uses to serve ``layout.json`` /
        ``layout.svg`` for a settled job: at that point only the hash is
        known — the netlist does not need to be re-resolved.
        """
        directory = self.entry_dir(key)
        if not self._is_complete(directory):
            return None
        try:
            manifest = _read_json(directory / MANIFEST_FILE)
            failure = self._verify_artifacts(directory, manifest)
            if failure is None and FAULTS.hit("cache.read.corrupt") is not None:
                failure = "fault injected at cache.read.corrupt"
        except (OSError, json.JSONDecodeError) as exc:
            failure = f"manifest unreadable ({type(exc).__name__}: {exc})"
            manifest = None
        if failure is not None:
            # Verified corruption is never served: the entry moves to the
            # quarantine area and the lookup reads as a miss, so the caller
            # re-solves (the service's journaled-requeue path rides this).
            self._quarantine(directory, key, failure)
            return None
        try:
            metrics = _read_json(directory / METRICS_FILE)
        except (OSError, json.JSONDecodeError):
            return None
        return CachedResult(
            key=key,
            directory=directory,
            manifest=manifest,
            summary=dict(metrics.get("summary", {})),
            profile=metrics.get("profile"),
        )

    def put(self, job: LayoutJob, result: FlowResult) -> Optional[CachedResult]:
        """Store a finished run (no-op when a valid entry already exists).

        A *corrupt or partial* existing entry is garbage, not data: the
        lookup above quarantines verified corruption (and anything else is
        removed), then the entry is rewritten — the append-only guarantee
        protects valid entries only; without this the store could never
        self-heal.

        A store that fails on disk (ENOSPC, EIO, staging write or rename)
        is **contained**: it is counted in ``stats.put_errors``, recorded
        in :attr:`last_put_error`, and ``None`` is returned — the caller
        keeps the in-memory result and the run simply goes un-cached.  A
        cache store must never fail the job that produced the result.
        """
        key = job.content_hash
        directory = self.entry_dir(key)
        entry = self.peek(job)
        if entry is not None:
            return entry
        try:
            if directory.exists():
                shutil.rmtree(directory, ignore_errors=True)
            self._write_entry(job, result, key, directory)
        except OSError as exc:
            self.stats.put_errors += 1
            self.last_put_error = f"{type(exc).__name__}: {exc}"
            return None
        entry = self.peek(job)
        if entry is None:
            self.stats.put_errors += 1
            self.last_put_error = f"cache entry {key[:12]} unreadable after store"
            return None
        self.last_put_error = None
        return entry

    def _sweep_stale_staging(self) -> int:
        """Remove staging leftovers from writers that were killed mid-write.

        A terminated worker (timeout, crash) never reaches its cleanup, so
        its staging directory would otherwise leak forever.  Anything old
        enough that no live writer can still own it is deleted; fresh
        leftovers are left alone (their writer may be mid-rename).

        A leftover's age is the *newest* mtime of the leftover and, for
        directories, everything inside it — the directory inode's own mtime
        freezes once the last file is created, so judging by it alone would
        sweep a slow writer's staging dir out from under it while it is
        still streaming document contents into existing files.
        """
        staging_root = self.root / "tmp"
        if not staging_root.is_dir():
            return 0
        cutoff = time.time() - STALE_STAGING_SECONDS
        swept = 0
        for leftover in staging_root.iterdir():
            try:
                newest = leftover.stat().st_mtime
                if leftover.is_dir():
                    for child in leftover.rglob("*"):
                        newest = max(newest, child.stat().st_mtime)
                if newest >= cutoff:
                    continue
                if leftover.is_dir():
                    shutil.rmtree(leftover, ignore_errors=True)
                else:
                    leftover.unlink()
                swept += 1
            except OSError:  # pragma: no cover - raced with another sweeper
                continue
        return swept

    def _write_entry(
        self, job: LayoutJob, result: FlowResult, key: str, directory: Path
    ) -> None:
        self._sweep_stale_staging()
        staging = self.root / "tmp" / f"{key[:12]}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        FAULTS.act("cache.put.staging")
        staging.mkdir(parents=True, exist_ok=True)
        try:
            save_layout(result.layout, staging / LAYOUT_FILE)
            _write_json(
                staging / METRICS_FILE,
                {
                    "summary": result.summary(),
                    "phases": result.phase_table(),
                    "profile": result.profile(),
                },
            )
            _write_json(
                staging / MANIFEST_FILE,
                {
                    "content_hash": key,
                    "flow": result.flow,
                    "circuit": result.circuit,
                    "label": job.describe(),
                    "code_version": code_version_salt(),
                    "runtime_s": result.runtime,
                    "created_unix": time.time(),
                    # Digests over the artifacts as staged: verify-on-read
                    # and scrub recompute and compare these on every access.
                    "artifacts": {
                        name: _file_digest(staging / name)
                        for name in (LAYOUT_FILE, METRICS_FILE)
                    },
                },
            )
            corrupt = FAULTS.hit("cache.put.corrupt")
            if corrupt is not None:
                # Garble a staged document so a corrupt entry lands on disk
                # exactly as a torn write would leave it.
                (staging / METRICS_FILE).write_text('{"torn": ', encoding="utf-8")
            directory.parent.mkdir(parents=True, exist_ok=True)
            FAULTS.act("cache.put.rename")
            try:
                staging.rename(directory)
            except OSError:
                # Lost the race against a concurrent writer; their entry is
                # equivalent (same content hash), keep it.
                shutil.rmtree(staging, ignore_errors=True)
            else:
                self.stats.stores += 1
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #

    @staticmethod
    def _verify_artifacts(directory: Path, manifest: Dict[str, object]) -> Optional[str]:
        """Check the manifest's artifact digests; ``None`` means clean.

        Entries written before digests existed carry no ``artifacts`` map
        and verify vacuously (scrub reports them as ``legacy``).
        """
        artifacts = manifest.get("artifacts")
        if not isinstance(artifacts, dict) or not artifacts:
            return None
        for name in sorted(artifacts):
            path = directory / name
            if not path.is_file():
                return f"artifact {name} missing"
            if _file_digest(path) != artifacts[name]:
                return f"artifact {name} digest mismatch"
        return None

    def _quarantine(self, directory: Path, key: str, reason: str) -> None:
        """Move a corrupt entry aside so it can never be served again.

        The move is a same-filesystem rename (atomic; concurrent readers
        see either the old path or nothing).  A note with the detection
        reason rides along for post-mortems.  If the rename loses a race
        the entry is dropped instead — quarantine must never fail a read.
        """
        quarantine_root = self.root / "quarantine"
        target = quarantine_root / f"{key}-{uuid.uuid4().hex[:8]}"
        try:
            quarantine_root.mkdir(parents=True, exist_ok=True)
            directory.rename(target)
        except OSError:
            shutil.rmtree(directory, ignore_errors=True)
        else:
            try:
                _write_json(
                    target / QUARANTINE_NOTE_FILE,
                    {"key": key, "reason": reason, "detected_unix": time.time()},
                )
            except OSError:  # pragma: no cover - quarantine area unwritable
                pass
        self.stats.quarantined += 1

    def quarantine_count(self) -> int:
        """Number of entries currently sitting in the quarantine area."""
        quarantine_root = self.root / "quarantine"
        if not quarantine_root.is_dir():
            return 0
        return sum(1 for path in quarantine_root.iterdir() if path.is_dir())

    def scrub(self, repair: bool = True) -> Dict[str, object]:
        """Walk the whole store verifying every entry and checkpoint.

        With ``repair=True`` corrupt entries are quarantined, corrupt or
        stale checkpoints removed, and orphaned staging leftovers swept;
        with ``repair=False`` (see :meth:`verify`) the walk is read-only.
        ``clean`` in the report refers to what this walk *found*: a scrub
        that just quarantined corruption reports ``clean: False``, the
        next one reports ``clean: True``.
        """
        report: Dict[str, object] = {
            "repair": bool(repair),
            "entries_scanned": 0,
            "entries_ok": 0,
            "entries_legacy": 0,
            "entries_corrupt": 0,
            "entries_quarantined": 0,
            "checkpoints_scanned": 0,
            "checkpoints_corrupt": 0,
            "checkpoints_removed": 0,
            "staging_swept": 0,
            "errors": 0,
            "corrupt_keys": [],
        }
        for key, directory in self._entry_dirs():
            report["entries_scanned"] += 1
            try:
                FAULTS.act("cache.scrub")
                if not self._is_complete(directory):
                    failure: Optional[str] = "incomplete entry"
                    legacy = False
                else:
                    manifest = _read_json(directory / MANIFEST_FILE)
                    artifacts = manifest.get("artifacts")
                    legacy = not isinstance(artifacts, dict) or not artifacts
                    failure = self._verify_artifacts(directory, manifest)
            except (OSError, RuntimeError, json.JSONDecodeError) as exc:
                if isinstance(exc, json.JSONDecodeError):
                    failure, legacy = f"manifest unreadable: {exc}", False
                else:
                    report["errors"] += 1
                    continue
            if failure is not None:
                report["entries_corrupt"] += 1
                report["corrupt_keys"].append(key)
                if repair:
                    self._quarantine(directory, key, failure)
                    report["entries_quarantined"] += 1
            elif legacy:
                report["entries_legacy"] += 1
            else:
                report["entries_ok"] += 1
        for key, path in self._checkpoint_files():
            report["checkpoints_scanned"] += 1
            try:
                self._parse_checkpoint(key, path.read_bytes())
            except (OSError, ValueError):
                report["checkpoints_corrupt"] += 1
                if repair:
                    try:
                        path.unlink()
                        report["checkpoints_removed"] += 1
                    except OSError:  # pragma: no cover - raced
                        pass
        if repair:
            report["staging_swept"] = self._sweep_stale_staging()
        report["quarantine_entries"] = self.quarantine_count()
        report["clean"] = (
            report["entries_corrupt"] == 0
            and report["checkpoints_corrupt"] == 0
            and report["errors"] == 0
        )
        return report

    def verify(self) -> Dict[str, object]:
        """Read-only integrity walk (:meth:`scrub` without repair)."""
        return self.scrub(repair=False)

    # ------------------------------------------------------------------ #
    # checkpoints (partial entries)
    # ------------------------------------------------------------------ #

    def checkpoint_dir(self, key: str) -> Path:
        """Directory a partial (checkpoint) entry for the key lives in."""
        return self.root / "partial" / key[:2] / key[2:]

    def checkpoint_path(self, key: str) -> Path:
        return self.checkpoint_dir(key) / CHECKPOINT_FILE

    def has_checkpoint(self, key: str) -> bool:
        return self.checkpoint_path(key).is_file()

    def write_checkpoint(self, key: str, checkpoint: SolveCheckpoint) -> bool:
        """Persist a solve checkpoint through staging + atomic rename.

        Failures are **contained** (counted, ``False`` returned): a
        checkpoint is an optimisation, and failing the solve that tried to
        save one would turn a durability feature into a crash surface.
        """
        doc = checkpoint.to_doc()
        doc["content_hash"] = key
        doc["code_version"] = code_version_salt()
        doc["created_unix"] = time.time()
        doc["digest"] = _checkpoint_digest(doc)
        staging = (
            self.root
            / "tmp"
            / f"ckpt-{key[:12]}-{os.getpid()}-{uuid.uuid4().hex[:8]}.json"
        )
        try:
            FAULTS.act("checkpoint.write")
            staging.parent.mkdir(parents=True, exist_ok=True)
            _write_json(staging, doc)
            directory = self.checkpoint_dir(key)
            directory.mkdir(parents=True, exist_ok=True)
            os.replace(staging, directory / CHECKPOINT_FILE)
        except (OSError, RuntimeError) as exc:
            self.stats.checkpoint_write_errors += 1
            self.last_put_error = f"checkpoint: {type(exc).__name__}: {exc}"
            staging.unlink(missing_ok=True)
            return False
        self.stats.checkpoint_writes += 1
        return True

    def read_checkpoint(self, key: str) -> Optional[SolveCheckpoint]:
        """Load a solve checkpoint, discarding anything not trustworthy.

        A torn file, a digest mismatch, a key mismatch or a stale code
        version all degrade to ``None`` (counted, the bad file removed):
        the solve simply starts cold.
        """
        path = self.checkpoint_path(key)
        if not path.is_file():
            return None
        try:
            if FAULTS.hit("checkpoint.read.corrupt") is not None:
                raise ValueError("fault injected at checkpoint.read.corrupt")
            checkpoint = self._parse_checkpoint(key, path.read_bytes())
        except (OSError, ValueError):
            self.stats.checkpoint_corrupt += 1
            path.unlink(missing_ok=True)
            return None
        self.stats.checkpoint_hits += 1
        return checkpoint

    def peek_checkpoint_stage(self, key: str) -> Optional[str]:
        """Stage of a stored checkpoint if it parses clean (no counters).

        Used by the pool's dispatcher to announce an upcoming resume; the
        worker's own :meth:`read_checkpoint` stays authoritative.
        """
        path = self.checkpoint_path(key)
        if not path.is_file():
            return None
        try:
            return self._parse_checkpoint(key, path.read_bytes()).stage
        except (OSError, ValueError):
            return None

    def clear_checkpoint(self, key: str) -> None:
        """Drop the partial entry (called once the full entry is stored)."""
        directory = self.checkpoint_dir(key)
        if directory.exists():
            shutil.rmtree(directory, ignore_errors=True)

    @staticmethod
    def _parse_checkpoint(key: str, raw: bytes) -> SolveCheckpoint:
        """Validate and parse checkpoint bytes (raises ``ValueError``)."""
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"torn checkpoint: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("torn checkpoint: not an object")
        recorded = doc.pop("digest", None)
        if recorded != _checkpoint_digest(doc):
            raise ValueError("checkpoint digest mismatch")
        if doc.get("content_hash") != key:
            raise ValueError("checkpoint key mismatch")
        if doc.get("code_version") != code_version_salt():
            raise ValueError("checkpoint from a different code version")
        return SolveCheckpoint.from_doc(doc)

    def _entry_dirs(self) -> Iterator[tuple]:
        """All entry directories (complete or not) as ``(key, path)``."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for directory in sorted(shard.iterdir()):
                if directory.is_dir():
                    yield shard.name + directory.name, directory

    def _checkpoint_files(self) -> Iterator[tuple]:
        """All stored checkpoint files as ``(key, path)``."""
        partial_root = self.root / "partial"
        if not partial_root.is_dir():
            return
        for shard in sorted(partial_root.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for directory in sorted(shard.iterdir()):
                path = directory / CHECKPOINT_FILE
                if path.is_file():
                    yield shard.name + directory.name, path

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_entries())

    def iter_entries(self) -> Iterator[CachedResult]:
        """Iterate over all complete entries in the store."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir() or shard.name == "tmp" or len(shard.name) != 2:
                continue
            for directory in sorted(shard.iterdir()):
                if not self._is_complete(directory):
                    continue
                try:
                    manifest = _read_json(directory / MANIFEST_FILE)
                    metrics = _read_json(directory / METRICS_FILE)
                except (OSError, json.JSONDecodeError):
                    continue
                yield CachedResult(
                    key=shard.name + directory.name,
                    directory=directory,
                    manifest=manifest,
                    summary=dict(metrics.get("summary", {})),
                    profile=metrics.get("profile"),
                )


class SolveCheckpointer(CheckpointSink):
    """Bind one job's solve checkpoints to a :class:`ResultCache`.

    This is the sink the worker hands to
    :meth:`repro.core.pilp.PILPLayoutGenerator.generate`: loads come from
    the cache's partial area (verified), saves go through staging +
    atomic rename, and :meth:`clear` retires the partial entry once the
    full result entry has been stored.
    """

    def __init__(self, cache: ResultCache, key: str) -> None:
        self.cache = cache
        self.key = key

    def load(self) -> Optional[SolveCheckpoint]:
        return self.cache.read_checkpoint(self.key)

    def save(self, checkpoint: SolveCheckpoint) -> bool:
        return self.cache.write_checkpoint(self.key, checkpoint)

    def clear(self) -> None:
        self.cache.clear_checkpoint(self.key)


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _checkpoint_digest(doc: Dict[str, object]) -> str:
    """Self-digest of a checkpoint document (its ``digest`` field excluded)."""
    canonical = json.dumps(
        {name: value for name, value in doc.items() if name != "digest"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _read_json(path: Path) -> Dict[str, object]:
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: Path, data: Dict[str, object]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
