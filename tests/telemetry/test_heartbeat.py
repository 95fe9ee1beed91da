"""Heartbeat observer: periodic progress lines on a long run."""

from __future__ import annotations

import io

import pytest

from repro.harness import profile_workload
from repro.telemetry import CLOCK_CHECK_INTERVAL, HeartbeatObserver, Telemetry


def _drive(observer, events: int) -> None:
    for i in range(events):
        observer.on_mem_read(0x1000 + i, 4)


class TestEventBeats:
    def test_beats_every_n_events_plus_final(self):
        out = io.StringIO()
        hb = HeartbeatObserver("vips/simsmall", every_events=10, stream=out)
        _drive(hb, 35)
        hb.on_run_end()
        assert hb.total == 35
        assert hb.beats == 4  # at 10, 20, 30, and the final beat
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("[repro] vips/simsmall:") for line in lines)
        assert lines[-1].endswith("(done)")
        assert "35 events" in lines[-1]

    def test_counts_every_event_kind(self):
        hb = HeartbeatObserver("x", every_events=1000, stream=io.StringIO())
        hb.on_fn_enter("f")
        hb.on_fn_exit("f")
        hb.on_mem_read(0, 1)
        hb.on_mem_write(0, 1)
        hb.on_op(None, 1)
        hb.on_branch(0, True)
        hb.on_syscall_enter("read", 0)
        hb.on_syscall_exit("read", 0)
        hb.on_thread_switch(1)
        assert hb.total == 8  # a syscall's enter and exit tick once

    def test_final_beat_matches_the_manifest(self):
        """The ``(done)`` line reports the run's ``events.total``, syscalls
        (which blackscholes makes) counted once."""
        out = io.StringIO()
        telemetry = Telemetry(heartbeat_events=10**9, heartbeat_stream=out)
        run = profile_workload("blackscholes", "simsmall", telemetry=telemetry)
        assert run.manifest.metrics["events.syscall"] > 0
        done = out.getvalue().strip().splitlines()[-1]
        assert done.endswith("(done)")
        assert f" {run.manifest.events_total:,} events," in done


class TestTimeBeats:
    def test_clock_checked_only_at_interval(self):
        # A clock that jumps far past the threshold immediately: a beat may
        # still only happen on a CLOCK_CHECK_INTERVAL boundary.
        now = [0.0]
        out = io.StringIO()
        hb = HeartbeatObserver(
            "x", every_seconds=0.5, stream=out, clock=lambda: now[0]
        )
        now[0] = 100.0
        _drive(hb, CLOCK_CHECK_INTERVAL - 1)
        assert hb.beats == 0
        _drive(hb, 1)
        assert hb.beats == 1

    def test_no_beat_before_interval_elapses(self):
        now = [0.0]
        hb = HeartbeatObserver(
            "x", every_seconds=60.0, stream=io.StringIO(), clock=lambda: now[0]
        )
        now[0] = 1.0
        _drive(hb, CLOCK_CHECK_INTERVAL * 3)
        assert hb.beats == 0


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"every_events": 0},
        {"every_events": -5},
        {"every_seconds": 0},
        {"every_seconds": -1.0},
    ])
    def test_rejects_non_positive_thresholds(self, kwargs):
        with pytest.raises(ValueError):
            HeartbeatObserver("x", **kwargs)
