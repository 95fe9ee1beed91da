"""Progress heartbeats: a long profiling run is no longer a silent box.

An opt-in :class:`~repro.telemetry.counting.EventCounter` that writes a
one-line progress report to stderr every N events and/or every T seconds,
reading the counter's ``total``.  The countdown runs out at the next
multiple of N, and of :data:`CLOCK_CHECK_INTERVAL` (where the wall clock
is consulted) for time-based beats.  A final beat is emitted at run end so
even short runs report their totals.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

from repro.telemetry.counting import NEVER, EventCounter

__all__ = ["HeartbeatObserver", "CLOCK_CHECK_INTERVAL"]

#: How many events pass between wall-clock checks for time-based beats.
CLOCK_CHECK_INTERVAL = 1024


class HeartbeatObserver(EventCounter):
    """Emits ``[repro] label: N events, T s, R ev/s`` lines while running."""

    #: A heartbeat run dispatches scalar, as it always has.
    batch_beneficial = False

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
        super().__init__()
        self.label = label
        self.every_events = every_events
        self.every_seconds = every_seconds
        self.beats = 0
        self._stream = stream
        self._clock = clock
        self._start = clock()
        self._last_beat = self._start
        self.countdown = self._until_check(0)

    def _until_check(self, total: int) -> int:
        """Events from ``total`` to the next beat check."""
        steps = [NEVER]
        if self.every_events is not None:
            steps.append(self.every_events - total % self.every_events)
        if self.every_seconds is not None:
            steps.append(CLOCK_CHECK_INTERVAL - total % CLOCK_CHECK_INTERVAL)
        return min(steps)

    def _due(self, final: bool = False) -> None:
        total = self.total
        if final:
            self._beat(total, final=True)
            return
        if self.every_events is not None and total % self.every_events == 0:
            self._beat(total)
        elif (
            self.every_seconds is not None
            and total % CLOCK_CHECK_INTERVAL == 0
            and self._clock() - self._last_beat >= self.every_seconds
        ):
            self._beat(total)
        self.countdown = self._until_check(total)

    def _beat(self, total: int, *, final: bool = False) -> None:
        now = self._clock()
        elapsed = now - self._start
        rate = total / elapsed if elapsed > 0 else 0.0
        tag = " (done)" if final else ""
        # Resolved per beat, so redirected/captured stderr is honoured.
        print(
            f"[repro] {self.label}: {total:,} events, "
            f"{elapsed:.1f}s, {rate:,.0f} ev/s{tag}",
            file=self._stream if self._stream is not None else sys.stderr,
        )
        self.beats += 1
        self._last_beat = now
