"""Executor edge cases: parallelism, caching, timeouts, retries, crashes.

Custom runners are registered in the parent and inherited by workers via
the fork start method, so these tests can simulate slow, flaky and
crashing jobs without any real profiling cost.  Cross-process attempt
counting goes through the lock-guarded JSONL helper.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time

import pytest

from repro.campaign import (
    CampaignState,
    Job,
    ResultStore,
    register_runner,
    retry_delay,
    run_campaign,
)
from repro.campaign import executor
from repro.campaign.executor import RUNNERS
from repro.campaign.identity import WORKER_ID_ENV, hostname
from repro.harness import ProfiledRun
from repro.telemetry import append_jsonl, read_jsonl
from repro.workloads import get_workload

_FORK = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(
    not _FORK, reason="runner registration reaches workers via fork"
)


@pytest.fixture()
def runners():
    """Register throwaway runners; deregister them after the test."""
    added = []

    def _register(tool, fn):
        register_runner(tool, fn)
        added.append(tool)

    yield _register
    for tool in added:
        RUNNERS.pop(tool, None)


@pytest.fixture()
def blocking(monkeypatch):
    """Record the coordinator's blocking calls as ``(kind, timeout, at)``.

    ``kind`` is ``"sleep"`` or ``"wait"`` (the sentinel wait), ``at`` the
    monotonic time of the call.  Workers inherit the patched ``time.sleep``
    through fork, so only the coordinator's own process is recorded.
    """
    calls = []
    coordinator = os.getpid()
    real_sleep, real_wait = time.sleep, executor._wait_for_exit

    def sleep(seconds):
        if os.getpid() == coordinator:
            calls.append(("sleep", seconds, time.monotonic()))
        real_sleep(seconds)

    def wait(sentinels, timeout):
        calls.append(("wait", timeout, time.monotonic()))
        return real_wait(sentinels, timeout)

    monkeypatch.setattr(time, "sleep", sleep)
    monkeypatch.setattr(executor, "_wait_for_exit", wait)
    return calls


def _cheap_run(job):
    """A ProfiledRun that cost (almost) nothing: meta-only store entry."""
    return ProfiledRun(
        workload=get_workload(job.workload, job.size),
        sigil=None,
        callgrind=None,
        execute_seconds=0.001,
    )


def _jobs(tool, workloads=("vips", "dedup", "canneal", "ferret")):
    return [Job(workload=w, tool=tool) for w in workloads]


class TestExecution:
    def test_real_jobs_run_in_parallel_and_land_in_store(self, tmp_path):
        store = ResultStore(tmp_path)
        state = CampaignState(store.campaign_dir("t"))
        jobs = [Job(workload=w, tool="native")
                for w in ("blackscholes", "streamcluster")]
        result = run_campaign(jobs, store, state, workers=2)
        assert result.ok and result.executed == 2 and result.cached == 0
        assert all(store.has(j.key) for j in jobs)
        replayed = state.replay()
        assert all(replayed[j.key].is_done for j in jobs)

    def test_warm_rerun_recomputes_nothing(self, tmp_path, runners):
        counts = tmp_path / "attempts.jsonl"

        def counting(job, telemetry):
            append_jsonl(counts, {"label": job.label})
            return _cheap_run(job)

        runners("counted", counting)
        store = ResultStore(tmp_path / "store")
        jobs = _jobs("counted")

        cold = run_campaign(jobs, store, workers=2)
        assert cold.executed == 4 and cold.cached == 0
        assert len(read_jsonl(counts)) == 4

        warm = run_campaign(jobs, store, workers=2)
        assert warm.done == 4 and warm.cached == 4 and warm.executed == 0
        assert len(read_jsonl(counts)) == 4  # zero re-executions

    def test_parallel_beats_serial_wall_clock(self, tmp_path, runners):
        naptime = 0.3

        def sleepy(job, telemetry):
            time.sleep(naptime)
            return _cheap_run(job)

        runners("sleepy", sleepy)
        jobs = _jobs("sleepy")

        t0 = time.monotonic()
        serial = run_campaign(jobs, ResultStore(tmp_path / "s1"), workers=1)
        serial_wall = time.monotonic() - t0
        t0 = time.monotonic()
        parallel = run_campaign(jobs, ResultStore(tmp_path / "s4"), workers=4)
        parallel_wall = time.monotonic() - t0

        assert serial.ok and parallel.ok
        assert serial_wall >= 4 * naptime
        assert parallel_wall < serial_wall

    def test_duplicate_jobs_collapse(self, tmp_path):
        store = ResultStore(tmp_path)
        job = Job(workload="blackscholes", tool="native")
        result = run_campaign([job, job, job], store, workers=2)
        assert result.total == 1 and result.ok


class TestFailureModes:
    def test_timeout_kills_worker_and_records_timeout(self, tmp_path, runners):
        def stuck(job, telemetry):
            time.sleep(60)
            return _cheap_run(job)

        runners("stuck", stuck)
        store = ResultStore(tmp_path)
        state = CampaignState(store.campaign_dir("t"))
        job = Job(workload="vips", tool="stuck")

        t0 = time.monotonic()
        result = run_campaign([job], store, state, workers=1,
                              timeout=0.3, retries=0)
        wall = time.monotonic() - t0

        assert wall < 10  # the worker was killed, not waited out
        assert result.timed_out == 1 and result.done == 0
        assert not store.has(job.key)
        assert state.replay()[job.key].state == "timeout"

    def test_flaky_job_succeeds_on_retry_two(self, tmp_path, runners):
        counts = tmp_path / "attempts.jsonl"

        def flaky(job, telemetry):
            append_jsonl(counts, {"label": job.label})
            if len(read_jsonl(counts)) <= 2:
                raise RuntimeError("transient flake")
            return _cheap_run(job)

        runners("flaky", flaky)
        store = ResultStore(tmp_path / "store")
        state = CampaignState(store.campaign_dir("t"))
        job = Job(workload="vips", tool="flaky")

        result = run_campaign([job], store, state, workers=1,
                              retries=2, backoff=0.01)
        assert result.ok
        rec = result.records[job.key]
        assert rec.attempts == 3  # two flakes + the success
        assert len(read_jsonl(counts)) == 3
        assert store.has(job.key)

    def test_retries_are_bounded(self, tmp_path, runners):
        counts = tmp_path / "attempts.jsonl"

        def hopeless(job, telemetry):
            append_jsonl(counts, {"label": job.label})
            raise RuntimeError("always broken")

        runners("hopeless", hopeless)
        store = ResultStore(tmp_path / "store")
        job = Job(workload="vips", tool="hopeless")
        result = run_campaign([job], store, workers=1,
                              retries=2, backoff=0.01)
        assert result.failed == 1
        assert len(read_jsonl(counts)) == 3  # initial + 2 retries, then stop
        assert "always broken" in result.records[job.key].error

    def test_worker_crash_marks_one_job_not_the_campaign(
        self, tmp_path, runners
    ):
        def crashing(job, telemetry):
            if job.workload == "dedup":
                os._exit(21)  # simulated segfault/OOM: no Python unwinding
            return _cheap_run(job)

        runners("crashy", crashing)
        store = ResultStore(tmp_path)
        jobs = [Job(workload="vips", tool="crashy"),
                Job(workload="dedup", tool="crashy")]
        result = run_campaign(jobs, store, workers=2, retries=0)

        assert result.done == 1 and result.failed == 1
        assert store.has(jobs[0].key) and not store.has(jobs[1].key)
        assert "exited with code 21" in result.records[jobs[1].key].error

    def test_unknown_tool_fails_cleanly(self, tmp_path):
        store = ResultStore(tmp_path)
        job = Job(workload="vips", tool="no-such-tool")
        result = run_campaign([job], store, workers=1, retries=0)
        assert result.failed == 1
        assert "no runner registered" in result.records[job.key].error


class TestWakeUps:
    """The coordinator blocks on worker exits and on what falls due next,
    never on a fixed clock."""

    def test_serial_hand_off_never_sleeps(self, tmp_path, runners, blocking):
        runners("cheap", lambda job, telemetry: _cheap_run(job))
        result = run_campaign(_jobs("cheap"), ResultStore(tmp_path),
                              workers=1, retries=0)
        assert result.executed == 4
        assert [c for c in blocking if c[0] == "sleep"] == []
        assert all(timeout is None for _, timeout, _ in blocking)
        assert 1 <= len(blocking) <= 4  # at most one wait per job

    def test_waits_never_outlast_the_deadline(self, tmp_path, runners,
                                              blocking):
        def stuck(job, telemetry):
            time.sleep(60)
            return _cheap_run(job)

        runners("stuck", stuck)
        store = ResultStore(tmp_path)
        state = CampaignState(store.campaign_dir("t"))
        job = Job(workload="vips", tool="stuck")
        result = run_campaign([job], store, state, workers=1,
                              timeout=0.3, retries=0)

        assert result.timed_out == 1
        assert state.replay()[job.key].state == "timeout"
        waits = [c for c in blocking if c[0] == "wait"]
        assert waits, "the coordinator never waited on the worker"
        # The worker launched before the first wait, so its deadline is at
        # most 0.3 s after it; no blocking call may run past that.
        deadline = waits[0][2] + 0.3
        for _, timeout, at in blocking:
            assert timeout is not None and timeout <= 0.3
            assert at + timeout <= deadline + 0.01

    def test_retry_waits_out_its_backoff_in_one_block(
        self, tmp_path, runners, blocking
    ):
        starts = tmp_path / "starts.jsonl"

        def flaky_once(job, telemetry):
            append_jsonl(starts, {"at": time.monotonic()})
            if len(read_jsonl(starts)) == 1:
                raise RuntimeError("transient flake")
            return _cheap_run(job)

        runners("flaky-once", flaky_once)
        job = Job(workload="vips", tool="flaky-once")
        result = run_campaign(
            [job], ResultStore(tmp_path / "store"), workers=1,
            retries=1, backoff=0.2, jitter=0,
            progress=lambda line: blocking.append(("progress", line, 0.0)),
        )

        assert result.ok and result.records[job.key].attempts == 2
        first, second = (row["at"] for row in read_jsonl(starts))
        # not_before is 0.2 s after the first attempt's reap, which follows
        # its start; the retry may not start before it.
        assert second - first >= 0.2
        retry = next(i for i, c in enumerate(blocking)
                     if c[0] == "progress" and c[1].startswith("retry"))
        relaunch = next(i for i, c in enumerate(blocking)
                        if c[0] == "progress" and c[1].startswith("start")
                        and "attempt 2" in c[1])
        backoff_blocks = [c for c in blocking[retry:relaunch]
                          if c[0] in ("sleep", "wait")]
        assert 1 <= len(backoff_blocks) <= 2, blocking

    def test_concurrent_campaigns_hand_off_promptly(
        self, tmp_path, runners, monkeypatch
    ):
        """Two coordinators in one process (as under ``repro serve``): a
        sibling's worker must not inherit the write end of another worker's
        sentinel pipe, or that worker's exit goes unseen until the
        sibling's job ends."""
        def slow(job, telemetry):
            time.sleep(3.0)
            return _cheap_run(job)

        runners("cheap", lambda job, telemetry: _cheap_run(job))
        runners("slow", slow)

        # Hold the first launch between fork and closing the pipe's write
        # end long enough for the slow campaign to fork inside that window.
        real_fork, forked = os.fork, threading.Event()

        def fork():
            pid = real_fork()
            if pid and not forked.is_set():
                forked.set()
                time.sleep(0.2)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        results = {}

        def campaign(name, jobs, after=None):
            if after is not None:
                after.wait(10)
            results[name] = run_campaign(
                jobs, ResultStore(tmp_path / name), workers=1, retries=0
            )

        threads = [
            threading.Thread(target=campaign, args=("cheap", _jobs("cheap"))),
            threading.Thread(
                target=campaign,
                args=("slow", [Job(workload="vips", tool="slow")], forked),
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)

        cheap = results["cheap"]
        assert cheap.executed == 4 and results["slow"].executed == 1
        # Each cheap job is seen done when its own worker exits, long
        # before the 3 s slow job ends.
        assert max(r.seconds for r in cheap.records.values()) < 1.5
        assert cheap.wall_seconds < 2.0


class TestArguments:
    @pytest.mark.parametrize("kwargs, name", [
        ({"workers": 0}, "workers"),
        ({"timeout": 0}, "timeout"),
        ({"timeout": -1.0}, "timeout"),
        ({"retries": -1}, "retries"),
        ({"backoff": -0.5}, "backoff"),
        ({"heartbeat_seconds": 0}, "heartbeat_seconds"),
    ])
    def test_bad_argument_raises_before_any_worker(
        self, tmp_path, runners, kwargs, name
    ):
        counts = tmp_path / "attempts.jsonl"

        def counting(job, telemetry):
            append_jsonl(counts, {"label": job.label})
            return _cheap_run(job)

        runners("counted", counting)
        store = ResultStore(tmp_path / "store")
        state = CampaignState(store.campaign_dir("t"))
        with pytest.raises(ValueError, match=f"invalid {name}="):
            run_campaign(_jobs("counted")[:1], store, state, **kwargs)
        assert not counts.exists()
        assert state.replay() == {}


class TestResume:
    def test_resume_skips_jobs_the_journal_completed(self, tmp_path, runners):
        counts = tmp_path / "attempts.jsonl"

        def counting(job, telemetry):
            append_jsonl(counts, {"label": job.label})
            return _cheap_run(job)

        runners("counted", counting)
        store = ResultStore(tmp_path / "store")
        state = CampaignState(store.campaign_dir("t"))
        jobs = _jobs("counted")

        # Simulated interrupt: the journal says two jobs finished before the
        # campaign died (their results never even reached the store).
        for job in jobs[:2]:
            state.append("planned", job)
            state.append("started", job, attempt=1)
            state.append("done", job, cached=False, seconds=0.1)

        result = run_campaign(jobs, store, state, workers=2,
                              skip_keys=state.completed_keys())
        assert result.done == 4
        assert result.cached == 2 and result.executed == 2
        ran = sorted(r["label"] for r in read_jsonl(counts))
        assert ran == sorted(j.label for j in jobs[2:])

    def test_dry_run_executes_nothing(self, tmp_path, runners):
        counts = tmp_path / "attempts.jsonl"

        def counting(job, telemetry):
            append_jsonl(counts, {"label": job.label})
            return _cheap_run(job)

        runners("counted", counting)
        store = ResultStore(tmp_path / "store")
        jobs = _jobs("counted")
        run_campaign(jobs[:1], store, workers=1)  # warm one cell
        result = run_campaign(jobs, store, dry_run=True)
        assert result.cached == 1
        assert sum(1 for r in result.records.values()
                   if r.state == "planned") == 3
        assert len(read_jsonl(counts)) == 1  # only the warm-up ran


class TestRetryJitter:
    """The backoff schedule: exponential base, bounded uniform jitter."""

    def test_delay_is_bounded_by_the_jitter_window(self):
        rng = random.Random(1234)
        for attempt in (1, 2, 3, 4):
            base = 0.5 * 2 ** (attempt - 1)
            for _ in range(200):
                delay = retry_delay(attempt, 0.5, jitter=0.5, rng=rng)
                assert base <= delay < base * 1.5

    def test_zero_jitter_is_exact_exponential(self):
        assert retry_delay(1, 0.5, jitter=0.0) == 0.5
        assert retry_delay(2, 0.5, jitter=0.0) == 1.0
        assert retry_delay(3, 0.5, jitter=0.0) == 2.0
        # attempt floors at 1, so a 0th attempt cannot shrink the base
        assert retry_delay(0, 0.5, jitter=0.0) == 0.5

    def test_seeded_rng_is_deterministic(self):
        a = [retry_delay(2, 0.25, jitter=0.5, rng=random.Random(7))
             for _ in range(3)]
        b = [retry_delay(2, 0.25, jitter=0.5, rng=random.Random(7))
             for _ in range(3)]
        assert a == b

    def test_jitter_actually_spreads_a_fleet(self):
        """Many concurrent retries must not collapse onto one instant."""
        rng = random.Random(99)
        delays = {round(retry_delay(1, 1.0, rng=rng), 6) for _ in range(50)}
        assert len(delays) > 40


class TestHeartbeatIdentity:
    def test_heartbeat_lines_carry_host_and_worker(
        self, tmp_path, runners, monkeypatch
    ):
        monkeypatch.setenv(WORKER_ID_ENV, "w5")

        def slow(job, telemetry):
            time.sleep(0.15)
            return _cheap_run(job)

        runners("slow-beat", slow)
        lines = []
        result = run_campaign(
            _jobs("slow-beat")[:2], ResultStore(tmp_path / "store"),
            workers=1, heartbeat_seconds=0.05, heartbeat=lines.append,
        )
        assert result.ok
        assert lines, "no heartbeat emitted"
        prefix = f"campaign[{hostname()}/w5]: "
        assert all(line.startswith(prefix) for line in lines)
        assert "running" in lines[0] and "pending" in lines[0]
