"""Progress heartbeats: a long profiling run is no longer a silent box.

An opt-in observer that writes a one-line progress report to stderr every N
events and/or every T seconds.  The event path costs one integer increment
plus one modulo test per primitive; the wall clock is consulted only every
:data:`CLOCK_CHECK_INTERVAL` events so time-based beats stay cheap.  A final
beat is emitted at ``on_run_end`` so even short runs report their totals.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

from repro.trace.events import OpKind
from repro.trace.observer import BaseObserver

__all__ = ["HeartbeatObserver", "CLOCK_CHECK_INTERVAL"]

#: How many events pass between wall-clock checks for time-based beats.
CLOCK_CHECK_INTERVAL = 1024


class HeartbeatObserver(BaseObserver):
    """Emits ``[repro] label: N events, T s, R ev/s`` lines while running."""

    def __init__(
        self,
        label: str,
        *,
        every_events: Optional[int] = None,
        every_seconds: Optional[float] = None,
        stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if every_events is not None and every_events <= 0:
            raise ValueError("every_events must be positive")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError("every_seconds must be positive")
        self.label = label
        self.every_events = every_events
        self.every_seconds = every_seconds
        self.events = 0
        self.beats = 0
        self._stream = stream
        self._clock = clock
        self._start = clock()
        self._last_beat = self._start

    # -- plumbing ---------------------------------------------------------

    def _out(self) -> TextIO:
        # Resolved lazily so redirected/captured stderr is honoured.
        return self._stream if self._stream is not None else sys.stderr

    def _beat(self, *, final: bool = False) -> None:
        now = self._clock()
        elapsed = now - self._start
        rate = self.events / elapsed if elapsed > 0 else 0.0
        tag = " (done)" if final else ""
        print(
            f"[repro] {self.label}: {self.events:,} events, "
            f"{elapsed:.1f}s, {rate:,.0f} ev/s{tag}",
            file=self._out(),
        )
        self.beats += 1
        self._last_beat = now

    def _tick(self) -> None:
        self.events += 1
        if self.every_events is not None and self.events % self.every_events == 0:
            self._beat()
            return
        if (
            self.every_seconds is not None
            and self.events % CLOCK_CHECK_INTERVAL == 0
            and self._clock() - self._last_beat >= self.every_seconds
        ):
            self._beat()

    # -- observer interface ------------------------------------------------

    def on_fn_enter(self, name: str) -> None:
        self._tick()

    def on_fn_exit(self, name: str) -> None:
        self._tick()

    def on_mem_read(self, addr: int, size: int) -> None:
        self._tick()

    def on_mem_write(self, addr: int, size: int) -> None:
        self._tick()

    def on_op(self, kind: OpKind, count: int) -> None:
        self._tick()

    def on_branch(self, site: int, taken: bool) -> None:
        self._tick()

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        # A syscall ticks once, at its enter, as ``events.total`` counts it.
        self._tick()

    def on_thread_switch(self, tid: int) -> None:
        self._tick()

    def on_run_end(self) -> None:
        self._beat(final=True)
