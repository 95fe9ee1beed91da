"""Campaign-level reporting: aggregate manifests and the status table.

Each job's worker writes its own telemetry manifest into the result store;
this module folds those per-job manifests, the journal's replayed records
and the store's bookkeeping into one **campaign manifest** -- the
machine-readable record of an entire sweep (schema ``repro-campaign/1``),
written next to the journal as ``campaign.manifest.json``.  ``repro
campaign status`` renders the same data as a table for humans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import repro
from repro.analysis import render_table
from repro.campaign.spec import Job
from repro.campaign.state import CampaignState, JobRecord
from repro.campaign.store import ResultStore

__all__ = [
    "CAMPAIGN_SCHEMA",
    "build_campaign_manifest",
    "write_campaign_manifest",
    "render_status",
]

#: Version tag embedded in every campaign manifest.
CAMPAIGN_SCHEMA = "repro-campaign/1"


def _job_entry(
    job: Job, record: Optional[JobRecord], store: ResultStore
) -> Dict[str, Any]:
    """One job's row in the campaign manifest."""
    entry: Dict[str, Any] = {
        "key": job.key,
        "label": job.label,
        "workload": job.workload,
        "size": job.size,
        "tool": job.tool,
        "state": record.state if record else "unplanned",
        "cached": record.cached if record else False,
        "attempts": record.attempts if record else 0,
        "seconds": record.seconds if record else 0.0,
        "error": record.error if record else "",
    }
    stored = store.get(job.key)
    if stored is not None:
        entry["stored"] = True
        # Per-phase timings and the publication time ride along so `status
        # --json` consumers (dashboards, `repro watch`, the serve daemon's
        # job endpoint) need no second store lookup.
        entry["phases"] = dict(stored.meta.get("phases", {}))
        if "created_unix" in stored.meta:
            entry["stored_unix"] = stored.meta["created_unix"]
        manifest = stored.load_manifest()
        if manifest is not None:
            entry["events_total"] = manifest.events_total
            entry["events_per_sec"] = manifest.events_per_sec
            entry["execute_seconds"] = manifest.phase_seconds("execute")
    else:
        entry["stored"] = False
    return entry


def build_campaign_manifest(
    name: str,
    jobs: Sequence[Job],
    records: Dict[str, JobRecord],
    store: ResultStore,
    *,
    wall_seconds: float = 0.0,
) -> Dict[str, Any]:
    """Aggregate per-job manifests + journal state into one document."""
    entries = [_job_entry(job, records.get(job.key), store) for job in jobs]
    states = [e["state"] for e in entries]
    manifest: Dict[str, Any] = {
        "schema": CAMPAIGN_SCHEMA,
        "name": name,
        "version": repro.__version__,
        "created_unix": time.time(),
        "wall_seconds": wall_seconds,
        "totals": {
            "jobs": len(entries),
            "done": states.count("done"),
            "cached": sum(1 for e in entries
                          if e["state"] == "done" and e["cached"]),
            "executed": sum(1 for e in entries
                            if e["state"] == "done" and not e["cached"]),
            "failed": states.count("failed"),
            "timeout": states.count("timeout"),
            "pending": sum(1 for s in states
                           if s in ("planned", "running", "unplanned")),
            "events_total": sum(e.get("events_total", 0) for e in entries),
            "store_bytes": store.size_bytes(),
        },
        "jobs": entries,
    }
    return manifest


def write_campaign_manifest(
    state: CampaignState,
    jobs: Sequence[Job],
    records: Dict[str, JobRecord],
    store: ResultStore,
    *,
    wall_seconds: float = 0.0,
) -> Path:
    """Build and write ``campaign.manifest.json`` next to the journal."""
    manifest = build_campaign_manifest(
        state.name, jobs, records, store,
        wall_seconds=wall_seconds,
    )
    target = state.directory / "campaign.manifest.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


def render_status(
    name: str,
    jobs: Sequence[Job],
    records: Dict[str, JobRecord],
    store: ResultStore,
) -> str:
    """The human-facing status table for ``repro campaign status``."""
    rows: List[tuple] = []
    for job in jobs:
        rec = records.get(job.key)
        state_name = rec.state if rec else "unplanned"
        if rec and rec.state == "done" and rec.cached:
            state_name = "done (cached)"
        rows.append((
            job.label,
            job.key[:12],
            state_name,
            rec.attempts if rec else 0,
            f"{rec.seconds:.2f}" if rec and rec.seconds else "-",
            "yes" if store.has(job.key) else "no",
            (rec.error[:48] if rec else ""),
        ))
    manifest = build_campaign_manifest(name, jobs, records, store)
    totals = manifest["totals"]
    table = render_table(
        ["job", "key", "state", "tries", "seconds", "stored", "error"],
        rows,
        title=f"campaign '{name}': {totals['jobs']} jobs",
    )
    footer = (
        f"\ndone {totals['done']} ({totals['cached']} cached, "
        f"{totals['executed']} executed) · failed {totals['failed']} · "
        f"timeout {totals['timeout']} · pending {totals['pending']} · "
        f"store {totals['store_bytes'] // 1024} KB"
    )
    return table + footer
