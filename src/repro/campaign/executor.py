"""The campaign executor: fan jobs out over isolated worker processes.

Each job runs in its **own** child process rather than a long-lived pooled
worker.  ``concurrent.futures.ProcessPoolExecutor`` was the obvious first
choice, but it cannot express two behaviours this engine guarantees: a
per-job timeout that actually *kills* the offending worker (a pool future's
``result(timeout=...)`` abandons the result but leaves the worker running),
and crash isolation (a segfaulting pooled worker raises
``BrokenProcessPool`` and poisons every sibling job).  A process per job
gives both for free -- a worker dying by signal, OOM-kill or ``os._exit``
marks exactly one job ``failed`` -- at a per-job spawn cost that is noise
next to an actual profiling run.  Concurrency stays bounded: at most
``workers`` children are alive at once.

Results never travel over pipes: a worker publishes its profile into the
shared :class:`~repro.campaign.store.ResultStore` (atomic rename) and its
exit code is the only signal the parent needs.  The coordinator waits on
the workers' exit sentinels rather than on a clock: it wakes when a worker
exits, a deadline passes, a backoff ends or a heartbeat is due, so a
finished job's slot is refilled at once.  Failed jobs are retried
with exponential backoff up to ``retries`` times; every transition is
journaled through :class:`~repro.campaign.state.CampaignState`, so a
campaign killed mid-flight resumes exactly where it stopped.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import random
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.identity import identity_suffix
from repro.campaign.spec import Job
from repro.campaign.state import CampaignState, JobRecord
from repro.campaign.store import ResultStore
from repro.harness import TOOL_STACKS, ProfiledRun, run_tool
from repro.telemetry import Telemetry

__all__ = [
    "CampaignResult",
    "run_campaign",
    "register_runner",
    "retry_delay",
    "DEFAULT_JITTER",
    "RUNNERS",
]

log = logging.getLogger("repro.campaign.executor")

#: Serialises worker launches across coordinators in one process (``repro
#: serve`` runs one per thread).  ``Process.start`` opens the sentinel pipe,
#: forks, then closes the pipe's write end; a sibling's fork in between
#: would hand its worker that write end, and the sentinel would not turn
#: ready until the sibling's job ended too.
_LAUNCH_LOCK = threading.Lock()

#: Default jitter fraction on retry backoff.  A failed shared resource (a
#: full disk, a saturated store host) fails many workers in the same
#: instant; pure exponential backoff would have them all retry in the same
#: instant too.  Each delay is therefore stretched by a uniform factor in
#: ``[1, 1 + jitter)`` so the workers' retries decorrelate.
DEFAULT_JITTER = 0.5


def retry_delay(
    attempt: int,
    backoff: float,
    *,
    jitter: float = DEFAULT_JITTER,
    rng: Optional[random.Random] = None,
) -> float:
    """Seconds to wait before re-running attempt ``attempt + 1``.

    The base is exponential -- ``backoff * 2**(attempt-1)`` for the first,
    second, ... retry -- and the jitter multiplies it by a uniform draw
    from ``[1, 1 + jitter)``.  The result is therefore always bounded:
    ``base <= delay < base * (1 + jitter)``.
    """
    base = backoff * (2 ** (max(1, attempt) - 1))
    if jitter <= 0:
        return base
    draw = (rng if rng is not None else random).random()
    return base * (1.0 + jitter * draw)


def _stack_runner(job: Job, telemetry: Telemetry) -> ProfiledRun:
    """Default runner: execute the job's tool stack through the harness."""
    return run_tool(
        job.workload,
        job.size,
        job.tool,
        config=job.sigil_config(),
        telemetry=telemetry,
    )


#: tool name -> runner callable ``(job, telemetry) -> ProfiledRun``.
#: The standard stacks are pre-registered; tests and extensions may add
#: their own (the fork start method makes registrations visible to
#: workers).
RUNNERS: Dict[str, Callable[[Job, Telemetry], ProfiledRun]] = {
    tool: _stack_runner for tool in TOOL_STACKS
}


def register_runner(
    tool: str, fn: Callable[[Job, Telemetry], ProfiledRun]
) -> None:
    """Register (or replace) the runner used for jobs with ``tool``."""
    RUNNERS[tool] = fn


def _worker_main(job_dict: dict, store_root: str, error_path: str) -> None:
    """Child-process entry: run one job and publish it into the store.

    The exit code is the whole result protocol -- 0 means "the store now
    holds this key".  On failure a one-line reason is left at
    ``error_path`` for the parent's journal.
    """
    job = Job.from_dict(job_dict)
    try:
        runner = RUNNERS.get(job.tool)
        if runner is None:
            raise LookupError(
                f"no runner registered for tool {job.tool!r}; "
                f"available: {', '.join(sorted(RUNNERS))}"
            )
        run = runner(job, Telemetry())
        if not isinstance(run, ProfiledRun):
            raise TypeError(
                f"runner for {job.tool!r} returned {type(run).__name__}, "
                "expected ProfiledRun"
            )
        ResultStore(store_root).put_run(job, run)
    except BaseException as exc:  # the exit code carries the verdict
        try:
            Path(error_path).write_text(f"{type(exc).__name__}: {exc}\n")
        except OSError:  # pragma: no cover - error channel best-effort
            pass
        raise SystemExit(1)


def _mp_context():
    """Fork when available: cheap spawns and runner registrations inherit."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


@dataclass
class _Attempt:
    """One pending (re)try of a job."""

    job: Job
    attempt: int = 1
    not_before: float = 0.0  # monotonic seconds; backoff gate


@dataclass
class _Slot:
    """One live worker process."""

    proc: "multiprocessing.process.BaseProcess"
    attempt: _Attempt
    started: float
    error_path: str
    deadline: Optional[float]


@dataclass
class CampaignResult:
    """What one `run_campaign` call did, per job and in aggregate."""

    records: Dict[str, JobRecord] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def _count(self, state: str) -> int:
        return sum(1 for r in self.records.values() if r.state == state)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def done(self) -> int:
        return self._count("done")

    @property
    def cached(self) -> int:
        return sum(1 for r in self.records.values()
                   if r.state == "done" and r.cached)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records.values()
                   if r.state == "done" and not r.cached)

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def timed_out(self) -> int:
        return self._count("timeout")

    @property
    def ok(self) -> bool:
        return self.done == self.total

    def summary(self, name: str = "campaign") -> str:
        """The stable one-line summary (smoke tests grep this)."""
        return (
            f"campaign '{name}': {self.total} jobs -> {self.done} done "
            f"({self.cached} cached, {self.executed} executed, "
            f"{self.failed} failed, {self.timed_out} timeout) "
            f"in {self.wall_seconds:.2f}s"
        )


def _terminate(slot: _Slot) -> None:
    """Stop a worker hard: terminate, then kill if it lingers."""
    slot.proc.terminate()
    slot.proc.join(timeout=1.0)
    if slot.proc.is_alive():  # pragma: no cover - stubborn worker
        slot.proc.kill()
        slot.proc.join(timeout=1.0)


def _wait_for_exit(sentinels: List[int], timeout: Optional[float]) -> List[int]:
    """Block until a worker exits or ``timeout`` seconds pass (``None``: no
    limit); return the sentinels that became ready.

    A process's sentinel becomes readable when the process exits.
    """
    return multiprocessing.connection.wait(sentinels, timeout)


def _read_error(path: str, exitcode: Optional[int]) -> str:
    try:
        text = Path(path).read_text().strip()
        if text:
            return text.splitlines()[0]
    except OSError:
        pass
    if exitcode is not None and exitcode < 0:
        return f"worker killed by signal {-exitcode}"
    return f"worker exited with code {exitcode}"


def run_campaign(
    jobs: Sequence[Job],
    store: ResultStore,
    state: Optional[CampaignState] = None,
    *,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.5,
    jitter: float = DEFAULT_JITTER,
    heartbeat_seconds: Optional[float] = None,
    heartbeat: Optional[Callable[[str], None]] = None,
    progress: Optional[Callable[[str], None]] = None,
    dry_run: bool = False,
    skip_keys: frozenset = frozenset(),
) -> CampaignResult:
    """Execute ``jobs`` against ``store`` with bounded parallelism.

    Jobs whose key is already in the store -- or in ``skip_keys``, the
    journal-derived completed set a resume passes in -- are marked ``done``
    with ``cached=True`` and never spawn a worker.  ``dry_run`` plans and
    classifies every job (cached vs. to-run) without executing anything.

    Periodic progress lines (gated by ``heartbeat_seconds``) go through the
    ``heartbeat`` callback; the default keeps the historical behaviour of a
    line on stderr, while a daemon embedding this executor captures the
    beats into its own per-job trace instead of losing them to the tty.

    The coordinator never polls.  It blocks on the live workers' exit
    sentinels until one exits or the next thing it must do itself falls
    due -- the earliest job deadline, the earliest backoff end while a slot
    is free, the next heartbeat -- and sleeps only when no worker runs and
    every pending attempt is in backoff.  A finished job's slot is refilled
    as soon as its exit is seen, and ``JobRecord.seconds`` runs from the
    worker's launch to its reap with no poll slack.

    Raises ``ValueError``, before any worker forks, for ``workers < 1``,
    ``timeout <= 0``, ``retries < 0``, ``backoff < 0`` or
    ``heartbeat_seconds <= 0`` (``None`` disables the timeout and the
    heartbeat).
    """
    for name, value, ok in (
        ("workers", workers, workers >= 1),
        ("timeout", timeout, timeout is None or timeout > 0),
        ("retries", retries, retries >= 0),
        ("backoff", backoff, backoff >= 0),
        ("heartbeat_seconds", heartbeat_seconds,
         heartbeat_seconds is None or heartbeat_seconds > 0),
    ):
        if not ok:
            raise ValueError(f"run_campaign: invalid {name}={value!r}")
    t0 = time.monotonic()
    notify = progress if progress is not None else (lambda line: None)
    beat = heartbeat if heartbeat is not None else (
        lambda line: print(line, file=sys.stderr)
    )
    result = CampaignResult()
    pending: List[_Attempt] = []
    duplicates = 0

    for job in jobs:
        key = job.key
        if key in result.records:
            duplicates += 1
            continue  # matrix expansions cannot repeat, but job lists can
        if state is not None:
            state.append("planned", job)
        if key in skip_keys or store.has(key):
            rec = JobRecord(key=key, label=job.label, state="done",
                            cached=True)
            result.records[key] = rec
            if state is not None:
                state.append("done", job, cached=True, seconds=0.0)
            notify(f"cached   {job.label}")
        else:
            result.records[key] = JobRecord(key=key, label=job.label,
                                            state="planned")
            pending.append(_Attempt(job))
            notify(f"planned  {job.label}")
    if duplicates:
        log.info("campaign: %d duplicate jobs collapsed", duplicates)

    if dry_run:
        result.wall_seconds = time.monotonic() - t0
        return result

    ctx = _mp_context()
    running: List[_Slot] = []
    last_beat = t0

    def _finish(slot: _Slot, state_name: str, **detail) -> None:
        rec = result.records[slot.attempt.job.key]
        rec.state = state_name
        rec.attempts = slot.attempt.attempt
        rec.seconds = time.monotonic() - slot.started
        rec.cached = False
        rec.error = str(detail.get("error", ""))
        if state is not None:
            state.append(state_name, slot.attempt.job,
                         attempt=slot.attempt.attempt,
                         seconds=rec.seconds, **detail)

    def _maybe_retry(slot: _Slot, kind: str, error: str) -> None:
        att = slot.attempt
        _finish(slot, kind, error=error)
        if att.attempt <= retries:
            delay = retry_delay(att.attempt, backoff, jitter=jitter)
            pending.append(
                _Attempt(att.job, att.attempt + 1,
                         time.monotonic() + delay)
            )
            result.records[att.job.key].state = "planned"
            notify(f"retry    {att.job.label} "
                   f"(attempt {att.attempt + 1}, in {delay:.2f}s): {error}")
        else:
            notify(f"{kind:8s} {att.job.label}: {error}")

    def _reap(slot: _Slot) -> None:
        slot.proc.join()
        running.remove(slot)
        key = slot.attempt.job.key
        if slot.proc.exitcode == 0 and store.has(key):
            _finish(slot, "done", cached=False)
            notify(f"done     {slot.attempt.job.label} "
                   f"({result.records[key].seconds:.2f}s)")
        else:
            error = _read_error(slot.error_path, slot.proc.exitcode)
            _maybe_retry(slot, "failed", error)
        Path(slot.error_path).unlink(missing_ok=True)

    def _launch(att: _Attempt) -> None:
        fd, error_path = tempfile.mkstemp(prefix="repro-job-", suffix=".err")
        os.close(fd)
        proc = ctx.Process(
            target=_worker_main,
            args=(att.job.to_dict(), str(store.root), error_path),
            daemon=True,
        )
        now = time.monotonic()
        with _LAUNCH_LOCK:
            proc.start()
        running.append(_Slot(
            proc=proc,
            attempt=att,
            started=now,
            error_path=error_path,
            deadline=(now + timeout) if timeout is not None else None,
        ))
        if state is not None:
            state.append("started", att.job, attempt=att.attempt)
        notify(f"start    {att.job.label} "
               f"(attempt {att.attempt}, pid {proc.pid})")

    # Sentinels the last wait returned ready.  A worker closes its files, so
    # its sentinel turns ready, a moment before a non-blocking poll can reap
    # it; such a worker is joined rather than taken for still running.
    exited: List[int] = []
    try:
        while pending or running:
            now = time.monotonic()

            # Reap exited workers first, so their slots free up for this
            # pass's launches, and kill the ones past their deadline.
            for slot in list(running):
                if slot.proc.sentinel in exited or not slot.proc.is_alive():
                    _reap(slot)
                elif slot.deadline is not None and now >= slot.deadline:
                    _terminate(slot)
                    running.remove(slot)
                    Path(slot.error_path).unlink(missing_ok=True)
                    _maybe_retry(
                        slot, "timeout", f"exceeded {timeout:.1f}s timeout"
                    )

            # Launch eligible attempts, in queue order, while slots are free.
            for att in [a for a in pending if a.not_before <= now]:
                if len(running) >= workers:
                    break
                pending.remove(att)
                _launch(att)

            if heartbeat_seconds and now - last_beat >= heartbeat_seconds:
                last_beat = now
                beat(
                    f"campaign{identity_suffix()}: "
                    f"{result.done}/{result.total} done "
                    f"({result.cached} cached) · {len(running)} running · "
                    f"{len(pending)} pending · {now - t0:.1f}s"
                )

            # Block until a worker exits or the next thing the loop must do
            # itself falls due: a deadline, a backoff ending while a slot is
            # free, or a heartbeat.  No wake-up is due -> wait on exits only.
            wakes = [s.deadline for s in running if s.deadline is not None]
            if pending and len(running) < workers:
                wakes.append(min(a.not_before for a in pending))
            if heartbeat_seconds:
                wakes.append(last_beat + heartbeat_seconds)
            delay = (max(0.0, min(wakes) - time.monotonic())
                     if wakes else None)
            exited = []
            if running:
                exited = _wait_for_exit(
                    [s.proc.sentinel for s in running], delay
                )
            elif pending:
                time.sleep(delay)
    except KeyboardInterrupt:
        for slot in running:
            _terminate(slot)
            Path(slot.error_path).unlink(missing_ok=True)
        if state is not None:
            state.append("interrupted",
                         pending=len(pending) + len(running))
        raise

    result.wall_seconds = time.monotonic() - t0
    return result
