"""The result store: a content-addressed, on-disk profile cache.

Layout (all under one root directory)::

    <root>/objects/<k1k2>/<key>/     one completed job, key = Job.key
        meta.json                    job descriptor, timings, digests
        profile.sigil                aggregate Sigil profile (when collected)
        events.sigil                 event log (when event mode was on)
        windowed.json                time-resolved curves (repro-windowed/1,
                                     cached alongside the event log)
        callgrind.out                Callgrind-equivalent profile (when run)
        manifest.json                the run's telemetry manifest (when on)
    <root>/tmp/                      staging area for in-flight writes
    <root>/campaigns/<name>/         campaign state (spec + journal)

Writes are atomic at the job granularity: a worker stages every artifact in
a private ``tmp`` directory and publishes it with one ``os.rename`` into
``objects/``.  Readers therefore never observe a half-written entry, and
two workers racing on the same key resolve harmlessly (first rename wins,
the loser discards its staging copy -- the content is identical by
construction).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.analysis import windowed
from repro.campaign.spec import Job
from repro.harness import ProfiledRun
from repro.io.callgrindfile import dump_callgrind, load_callgrind
from repro.io.eventbin import dump_events_bin, load_event_arrays
from repro.io.profilefile import dump_profile, load_profile, profile_digest
from repro.telemetry import Manifest
from repro.workloads import get_workload

__all__ = [
    "ResultStore",
    "StoredResult",
    "VerifyReport",
    "DEFAULT_STORE_ENV",
    "default_store_root",
]

log = logging.getLogger("repro.campaign.store")

#: Environment variable overriding the default store location.
DEFAULT_STORE_ENV = "REPRO_CAMPAIGN_STORE"

_META = "meta.json"
_PROFILE = "profile.sigil"
_EVENTS = "events.sigil"
_CURVES = "windowed.json"
_CALLGRIND = "callgrind.out"
_MANIFEST = "manifest.json"


def default_store_root() -> Path:
    """The store root the CLI uses when ``--store`` is not given."""
    return Path(os.environ.get(DEFAULT_STORE_ENV, ".repro-campaigns"))


@dataclass
class StoredResult:
    """A handle on one completed job's artifacts in the store."""

    key: str
    path: Path
    meta: Dict[str, Any]

    @property
    def job(self) -> Job:
        return Job.from_dict(self.meta["job"])

    @property
    def label(self) -> str:
        return self.job.label

    def profile_path(self) -> Optional[Path]:
        p = self.path / _PROFILE
        return p if p.exists() else None

    def load_profile(self):
        """The Sigil profile, with its event log re-attached when present."""
        path = self.profile_path()
        if path is None:
            return None
        profile = load_profile(path)
        events_path = self.path / _EVENTS
        if events_path.exists():
            profile.events = load_event_arrays(events_path)
        return profile

    def load_callgrind(self):
        path = self.path / _CALLGRIND
        return load_callgrind(path) if path.exists() else None

    def load_manifest(self) -> Optional[Manifest]:
        path = self.path / _MANIFEST
        return Manifest.load(path) if path.exists() else None

    def curves_path(self) -> Optional[Path]:
        p = self.path / _CURVES
        return p if p.exists() else None

    def load_curves(self):
        """The cached time-resolved curves (``repro-windowed/1``), or None.

        Entries written before the windowed layer (or without event mode)
        have no curves file; callers can recompute from ``events.sigil``
        via :func:`repro.analysis.windowed.windowed_curves` when the log
        was stored.
        """
        path = self.curves_path()
        if path is None:
            return None
        return windowed.WindowedCurves.from_dict(json.loads(path.read_text()))

    def profiled_run(self) -> ProfiledRun:
        """Rehydrate a :class:`ProfiledRun` equivalent to the original.

        The workload object is rebuilt from the registry (construction is
        cheap and deterministic); phase seconds come from the recorded meta,
        so overhead tables keyed on the original timings still agree.
        """
        job = self.job
        phases = self.meta.get("phases", {})
        return ProfiledRun(
            workload=get_workload(job.workload, job.size),
            sigil=self.load_profile(),
            callgrind=self.load_callgrind(),
            setup_seconds=float(phases.get("setup", 0.0)),
            execute_seconds=float(phases.get("execute", 0.0)),
            aggregate_seconds=float(phases.get("aggregate", 0.0)),
            manifest=self.load_manifest(),
        )

    def verify(self) -> bool:
        """Recompute the profile digest and compare with the recorded one."""
        recorded = self.meta.get("profile_sha256")
        path = self.profile_path()
        if recorded is None or path is None:
            return True  # nothing recorded to contradict
        import hashlib

        return hashlib.sha256(path.read_bytes()).hexdigest() == recorded


@dataclass
class VerifyReport:
    """Result of verifying every entry in a store."""

    checked: int = 0
    corrupt: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.corrupt


class ResultStore:
    """On-disk cache mapping job keys to completed profiling results."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_store_root()

    # -- paths ------------------------------------------------------------

    def object_dir(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key

    def campaign_dir(self, name: str) -> Path:
        return self.root / "campaigns" / name

    # -- queries ----------------------------------------------------------

    def has(self, key: str) -> bool:
        """Whether a *complete* entry exists (meta published atomically)."""
        return (self.object_dir(key) / _META).exists()

    def get(self, key: str) -> Optional[StoredResult]:
        path = self.object_dir(key)
        meta_path = path / _META
        if not meta_path.exists():
            return None
        meta = json.loads(meta_path.read_text())
        return StoredResult(key=key, path=path, meta=meta)

    def keys(self) -> List[str]:
        objects = self.root / "objects"
        if not objects.exists():
            return []
        return sorted(
            entry.name
            for shard in objects.iterdir() if shard.is_dir()
            for entry in shard.iterdir()
            if (entry / _META).exists()
        )

    def size_bytes(self) -> int:
        objects = self.root / "objects"
        if not objects.exists():
            return 0
        return sum(
            f.stat().st_size for f in objects.rglob("*") if f.is_file()
        )

    def stats(self) -> Dict[str, int]:
        """Store-level bookkeeping for gauges: object count, bytes, campaigns.

        One filesystem walk feeds the serve daemon's ``repro_store_*``
        gauges; the numbers are point-in-time (concurrent publishes may land
        between the count and the byte walk, which is fine for monitoring).
        """
        campaigns_dir = self.root / "campaigns"
        n_campaigns = (
            sum(1 for p in campaigns_dir.iterdir() if p.is_dir())
            if campaigns_dir.exists() else 0
        )
        return {
            "objects": len(self.keys()),
            "bytes": self.size_bytes(),
            "campaigns": n_campaigns,
        }

    # -- writes -----------------------------------------------------------

    def put_run(self, job: Job, run: ProfiledRun) -> StoredResult:
        """Persist every artifact of ``run`` under ``job.key``, atomically."""
        key = job.key
        final = self.object_dir(key)
        if self.has(key):
            return self.get(key)  # type: ignore[return-value]
        staging = self.root / "tmp" / f"{key}.{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            meta: Dict[str, Any] = {
                "job": job.to_dict(),
                "key": key,
                "label": job.label,
                "phases": {
                    "setup": run.setup_seconds,
                    "execute": run.execute_seconds,
                    "aggregate": run.aggregate_seconds,
                },
                "created_unix": time.time(),
            }
            if run.sigil is not None:
                dump_profile(run.sigil, staging / _PROFILE)
                meta["profile_sha256"] = profile_digest(run.sigil)
                if run.sigil.events is not None:
                    # Binary v2: compact and loads without per-row objects.
                    dump_events_bin(run.sigil.events, staging / _EVENTS)
                    # Cache the time-resolved curves next to the log, so
                    # watchers (and `repro serve`) plot WS(t) without
                    # re-streaming the events per request.
                    curves = windowed.windowed_curves(run.sigil.events)
                    (staging / _CURVES).write_text(
                        json.dumps(curves.to_dict(), separators=(",", ":"))
                        + "\n"
                    )
            if run.callgrind is not None:
                dump_callgrind(run.callgrind, staging / _CALLGRIND)
            if run.manifest is not None:
                run.manifest.write(staging / _MANIFEST)
            # meta.json is written last inside staging, but visibility is
            # governed by the rename: the entry appears fully formed or not
            # at all.
            (staging / _META).write_text(
                json.dumps(meta, indent=2, sort_keys=True) + "\n"
            )
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(staging, final)
            except OSError:
                if self.has(key):  # lost a benign publish race
                    log.debug("store: lost publish race for %s", key[:12])
                    shutil.rmtree(staging, ignore_errors=True)
                else:
                    raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return self.get(key)  # type: ignore[return-value]

    def verify_all(self) -> VerifyReport:
        """Verify every entry's recorded digest; unreadable meta is corrupt.

        This is what ``repro campaign verify`` runs from CI and cron: a
        non-empty ``corrupt`` list means an entry whose bytes no longer
        match what its producer recorded.
        """
        report = VerifyReport()
        for key in self.keys():
            report.checked += 1
            try:
                stored = self.get(key)
                ok = stored is not None and stored.verify()
            except (OSError, ValueError):
                ok = False
            if not ok:
                report.corrupt.append(key)
        return report

    # -- maintenance ------------------------------------------------------

    def drop(self, key: str) -> bool:
        """Remove one entry; True when something was deleted."""
        path = self.object_dir(key)
        if not path.exists():
            return False
        shutil.rmtree(path)
        return True

    def clear(self) -> int:
        """Remove every stored object (campaign state is kept); count removed."""
        removed = len(self.keys())
        shutil.rmtree(self.root / "objects", ignore_errors=True)
        shutil.rmtree(self.root / "tmp", ignore_errors=True)
        return removed
