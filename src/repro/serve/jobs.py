"""Serve-job lifecycle: accept, execute, trace, and resume profiling jobs.

A **serve job** is one HTTP submission -- either a CampaignSpec-style body
(``{"workloads": [...], "sizes": [...], ...}``) or a single-cell shorthand
(``{"workload": "vips", "size": "simsmall", "tool": "sigil"}``) -- expanded
into content-addressed campaign cells and executed through
:func:`repro.campaign.executor.run_campaign` against the shared
:class:`~repro.campaign.store.ResultStore`.  Warm submissions never spawn a
worker: every cell resolves as a cache hit and the job completes in the
time it takes to write its trace.

Each job owns a directory under ``<store>/serve/jobs/<id>/``::

    request.json      the submitted body, verbatim, plus submit time
    trace.jsonl       sequence-numbered observability events (SSE source)
    campaign/         the campaign journal -- spec.json + journal.jsonl

The campaign journal is the **durability layer**: a daemon killed mid-job
leaves ``journal.jsonl`` behind, and the next start re-queues every job
whose trace lacks a terminal event, passing the journal's completed keys as
``skip_keys`` so finished cells are never re-executed.  The trace file is
the **observability layer**: every journal transition, executor heartbeat,
retry and phase timing lands there with a monotonic ``seq``, which is what
``repro watch`` tails and ``GET /jobs/<id>/events`` streams.
"""

from __future__ import annotations

import json
import logging
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.campaign.executor import run_campaign
from repro.campaign.report import build_campaign_manifest
from repro.campaign.spec import CampaignSpec, Job
from repro.campaign.state import CampaignState
from repro.campaign.store import ResultStore
from repro.serve.promfmt import ServeMetrics
from repro.serve.sse import EventBroker, JobChannel

__all__ = ["JobManager", "ServeJob", "TERMINAL_EVENTS", "spec_from_body"]

log = logging.getLogger("repro.serve.jobs")

#: Trace events that end a job's stream; SSE connections close after one.
TERMINAL_EVENTS = frozenset({"completed", "error"})

_ID_RE = re.compile(r"^job-(\d{6,})$")

#: Campaign-spec keys accepted in a batch-style submission body.
_SPEC_KEYS = frozenset({"name", "workloads", "sizes", "tools", "configs"})
#: Keys accepted in a single-cell submission body.
_CELL_KEYS = frozenset({"workload", "size", "tool", "config"})


def spec_from_body(body: Mapping[str, Any]) -> CampaignSpec:
    """Parse a submission body into a validated :class:`CampaignSpec`.

    Accepts the campaign form (``workloads`` plural, same keys as a spec
    file) or the single-cell form (``workload`` singular); anything else --
    unknown keys, both forms at once, junk values -- raises ``ValueError``,
    which the HTTP layer maps to a 400.
    """
    if not isinstance(body, Mapping):
        raise ValueError("job body must be a JSON object")
    keys = set(body)
    if "workload" in keys and "workloads" in keys:
        raise ValueError("give either 'workload' (one cell) or 'workloads' "
                         "(a matrix), not both")
    if "workload" in keys:
        unknown = keys - _CELL_KEYS
        if unknown:
            raise ValueError(
                f"unknown job keys: {', '.join(sorted(unknown))}; "
                f"single-cell jobs accept {', '.join(sorted(_CELL_KEYS))}"
            )
        return CampaignSpec.from_lists(
            name="adhoc",
            workloads=[str(body["workload"])],
            sizes=[str(body.get("size", "simsmall"))],
            tools=[str(body.get("tool", "sigil+callgrind"))],
            configs=[dict(body.get("config") or {})],
        )
    if "workloads" in keys:
        unknown = keys - _SPEC_KEYS
        if unknown:
            raise ValueError(
                f"unknown campaign keys: {', '.join(sorted(unknown))}; "
                f"accepted: {', '.join(sorted(_SPEC_KEYS))}"
            )
        spec = CampaignSpec.from_dict(body)
        if not len(spec):
            raise ValueError("job expands to zero cells")
        return spec
    raise ValueError("job body needs 'workload' or 'workloads'")


@dataclass
class ServeJob:
    """One HTTP submission and its current standing."""

    id: str
    spec: CampaignSpec
    body: Dict[str, Any]
    state: str = "queued"  # queued | running | done | failed | error
    submitted_unix: float = field(default_factory=time.time)
    n_cells: int = 0
    result: Optional[Dict[str, Any]] = None
    error: str = ""
    finished: threading.Event = field(default_factory=threading.Event, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON shape ``GET /jobs`` lists."""
        entry: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "submitted_unix": self.submitted_unix,
            "cells": self.n_cells,
            "name": self.spec.name,
        }
        if self.result is not None:
            entry["result"] = self.result
        if self.error:
            entry["error"] = self.error
        return entry


class _TracingState(CampaignState):
    """A campaign journal that mirrors every transition into a job channel.

    The journal append (durability) happens first; the channel emit
    (observability) follows with the same payload, so the SSE stream and
    ``repro watch`` see exactly the lifecycle the journal records --
    planned, started, done (with the cache-hit flag), failed, timeout.
    """

    def __init__(self, directory, channel: JobChannel, job_id: str):
        super().__init__(directory)
        self._channel = channel
        self._job_id = job_id

    def append(self, event: str, job: Optional[Job] = None, **detail: Any) -> None:
        super().append(event, job, **detail)
        fields: Dict[str, Any] = {"job": self._job_id}
        if job is not None:
            fields["key"] = job.key
            fields["label"] = job.label
        fields.update(detail)
        self._channel.emit(event, **fields)


class JobManager:
    """Owns the serve-job registry, worker threads, and restart resume."""

    def __init__(
        self,
        store: ResultStore,
        *,
        workers: int = 1,
        concurrency: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        heartbeat_seconds: Optional[float] = 5.0,
        metrics: Optional[ServeMetrics] = None,
        resume: bool = True,
    ):
        self.store = store
        self.workers = max(1, workers)
        self.timeout = timeout
        self.retries = retries
        self.heartbeat_seconds = heartbeat_seconds
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.broker = EventBroker()
        self._jobs: Dict[str, ServeJob] = {}
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._next_index = self._scan_next_index()
        if resume:
            self._resume_incomplete()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-serve-worker-{i}")
            for i in range(max(1, concurrency))
        ]
        for thread in self._threads:
            thread.start()

    # -- paths -------------------------------------------------------------

    @property
    def serve_root(self) -> Path:
        """Where serve jobs live: ``<store>/serve/jobs``."""
        return self.store.root / "serve" / "jobs"

    def job_dir(self, job_id: str) -> Path:
        return self.serve_root / job_id

    def trace_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "trace.jsonl"

    # -- registry ----------------------------------------------------------

    def get(self, job_id: str) -> Optional[ServeJob]:
        """The in-memory job record, or None for unknown ids."""
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[ServeJob]:
        """Every known job, oldest first."""
        with self._lock:
            return [self._jobs[k] for k in sorted(self._jobs)]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block until ``job_id`` reaches a terminal state (True) or timeout."""
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job.finished.wait(timeout)

    def detail(self, job_id: str) -> Dict[str, Any]:
        """The job's full document: serve state + campaign manifest.

        The per-cell section is the same ``repro-campaign/1`` schema that
        ``repro campaign status --json`` emits, so one dashboard consumer
        handles both surfaces.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        state = CampaignState(self.job_dir(job_id) / "campaign")
        manifest = build_campaign_manifest(
            job_id, job.spec.jobs(), state.replay(), self.store,
        )
        doc = job.to_dict()
        doc["campaign"] = manifest
        doc["last_seq"] = self.broker.channel(
            job_id, self.trace_path(job_id)
        ).last_seq
        return doc

    def curves(self, job_id: str) -> Dict[str, Any]:
        """Per-cell time-resolved curves of a job's cached results.

        One entry per campaign cell, keyed by the cell's content-addressed
        key: the cell's label plus the ``repro-windowed/1`` curves document
        the store cached at publish time, or ``None`` when the cell has no
        result yet (still running/failed) or its entry carries no curves
        (non-event tools, or a store written before the windowed layer).
        A watcher can therefore plot WS(t) for any finished cell without
        downloading or re-streaming the event log.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(job_id)
        cells: Dict[str, Any] = {}
        for cell in job.spec.jobs():
            stored = self.store.get(cell.key)
            payload = None
            if stored is not None:
                path = stored.curves_path()
                if path is not None:
                    payload = json.loads(path.read_text())
            cells[cell.key] = {"label": cell.label, "curves": payload}
        return {"job": job_id, "state": job.state, "cells": cells}

    # -- submission --------------------------------------------------------

    def _scan_next_index(self) -> int:
        if not self.serve_root.exists():
            return 1
        highest = 0
        for entry in self.serve_root.iterdir():
            match = _ID_RE.match(entry.name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    def submit(self, body: Mapping[str, Any]) -> ServeJob:
        """Accept one job body; returns the queued :class:`ServeJob`.

        Raises ``ValueError`` on a malformed body (the HTTP layer's 400).
        """
        spec = spec_from_body(body)
        with self._lock:
            job_id = f"job-{self._next_index:06d}"
            self._next_index += 1
        job = ServeJob(id=job_id, spec=spec, body=dict(body),
                       n_cells=len(spec))
        job_dir = self.job_dir(job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        (job_dir / "request.json").write_text(json.dumps(
            {"body": dict(body), "submitted_unix": job.submitted_unix},
            indent=2, sort_keys=True, default=str,
        ) + "\n")
        channel = self.broker.channel(job_id, self.trace_path(job_id))
        with self._lock:
            self._jobs[job_id] = job
        channel.emit("submitted", job=job_id, name=spec.name,
                     cells=job.n_cells,
                     labels=[j.label for j in spec.jobs()])
        self.metrics.jobs_submitted.inc()
        self._queue.put(job_id)
        return job

    # -- restart resume ----------------------------------------------------

    def _resume_incomplete(self) -> None:
        """Re-queue jobs whose trace never reached a terminal event.

        Terminal jobs are loaded read-only (so ``GET /jobs`` still lists
        them); unfinished ones emit ``resumed`` and run again with the
        campaign journal's completed cells skipped.
        """
        if not self.serve_root.exists():
            return
        for entry in sorted(self.serve_root.iterdir()):
            if not _ID_RE.match(entry.name) or \
                    not (entry / "request.json").exists():
                continue
            job_id = entry.name
            try:
                request = json.loads((entry / "request.json").read_text())
                body = request.get("body", {})
                spec = spec_from_body(body)
            except (OSError, ValueError) as exc:
                log.warning("serve: cannot resume %s: %s", job_id, exc)
                continue
            channel = self.broker.channel(job_id, self.trace_path(job_id))
            job = ServeJob(
                id=job_id, spec=spec, body=dict(body), n_cells=len(spec),
                submitted_unix=float(request.get("submitted_unix", 0.0)),
            )
            terminal = [r for r in channel.events()
                        if r.get("event") in TERMINAL_EVENTS]
            if terminal:
                last = terminal[-1]
                job.state = str(last.get("state", "done"))
                job.result = {
                    k: last[k] for k in
                    ("total", "done", "cached", "executed", "failed",
                     "timeout", "wall_seconds", "ok")
                    if k in last
                }
                job.error = str(last.get("message", ""))
                job.finished.set()
                with self._lock:
                    self._jobs[job_id] = job
                continue
            with self._lock:
                self._jobs[job_id] = job
            channel.emit("resumed", job=job_id, name=spec.name,
                         cells=job.n_cells)
            self.metrics.jobs_resumed.inc()
            self._queue.put(job_id)
            log.info("serve: resuming %s (%d cells)", job_id, job.n_cells)

    # -- execution ---------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self.get(job_id)
            if job is None:  # pragma: no cover - registry/queue mismatch
                continue
            try:
                self._run(job)
            except BaseException as exc:  # keep the worker thread alive
                log.exception("serve: job %s died", job_id)
                self._finish(job, "error", error=f"{type(exc).__name__}: {exc}")

    def _run(self, job: ServeJob) -> None:
        channel = self.broker.channel(job.id, self.trace_path(job.id))
        job.state = "running"
        self.metrics.jobs_running.set(
            sum(1 for j in self.list() if j.state == "running")
        )
        channel.emit("running", job=job.id)
        state = _TracingState(self.job_dir(job.id) / "campaign", channel,
                              job.id)
        state.save_spec(job.spec)
        skip = state.completed_keys()
        beat = lambda line: channel.emit(  # noqa: E731
            "heartbeat", job=job.id, message=line
        )
        result = run_campaign(
            job.spec.jobs(),
            self.store,
            state,
            workers=self.workers,
            timeout=self.timeout,
            retries=self.retries,
            heartbeat_seconds=self.heartbeat_seconds,
            heartbeat=beat,
            skip_keys=skip,
        )
        # Executed cells carry fresh phase timings in their stored meta;
        # surface them on the stream so watchers see where the time went.
        for key, rec in result.records.items():
            if rec.state != "done" or rec.cached:
                continue
            stored = self.store.get(key)
            if stored is not None:
                channel.emit("phases", job=job.id, key=key, label=rec.label,
                             **dict(stored.meta.get("phases", {})))
            self.metrics.observe_cell_seconds(
                Job.from_dict(stored.meta["job"]).tool if stored else "?",
                rec.seconds,
            )
        self.metrics.cache_hits.inc(result.cached)
        self.metrics.cache_misses.inc(result.executed)
        summary = {
            "total": result.total,
            "done": result.done,
            "cached": result.cached,
            "executed": result.executed,
            "failed": result.failed,
            "timeout": result.timed_out,
            "wall_seconds": result.wall_seconds,
            "ok": result.ok,
        }
        self._finish(job, "done" if result.ok else "failed", result=summary)

    def _finish(
        self,
        job: ServeJob,
        state: str,
        *,
        result: Optional[Dict[str, Any]] = None,
        error: str = "",
    ) -> None:
        job.state = state
        job.result = result
        job.error = error
        self.metrics.jobs_running.set(
            sum(1 for j in self.list() if j.state == "running")
        )
        self.metrics.job_completed(state)
        channel = self.broker.channel(job.id, self.trace_path(job.id))
        event = "error" if state == "error" else "completed"
        fields: Dict[str, Any] = {"job": job.id, "state": state}
        if result:
            fields.update(result)
        if error:
            fields["message"] = error
        channel.emit(event, **fields)
        job.finished.set()

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, wait: bool = False, timeout: float = 5.0) -> None:
        """Stop the worker threads (queued jobs stay journaled for resume)."""
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout)
