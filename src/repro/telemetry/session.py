"""The telemetry session facade: `Telemetry` and its zero-cost null twin.

A :class:`Telemetry` object owns one run's metric registry, phase timers and
heartbeat configuration; instrumented layers receive it and publish what
they already know (pull-based -- see :mod:`repro.telemetry.metrics`).  The
:class:`NullTelemetry` singleton implements the same surface as shared
no-ops: passing it (the default everywhere) adds **zero Python-level calls
per traced event** and no per-call allocation, because its accessors hand
back process-wide singletons and nothing telemetry-related is ever placed on
the observer fan-out path.
"""

from __future__ import annotations

import logging
import sys
from typing import TYPE_CHECKING, Dict, Optional, TextIO

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.telemetry.timers import PhaseTimer

if TYPE_CHECKING:
    from repro.telemetry.heartbeat import HeartbeatObserver

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]

log = logging.getLogger("repro.telemetry")


class Telemetry:
    """One run's self-observation: metrics + phase timers + heartbeat knobs."""

    enabled = True

    def __init__(
        self,
        *,
        heartbeat_events: Optional[int] = None,
        heartbeat_seconds: Optional[float] = None,
        heartbeat_stream: Optional[TextIO] = None,
    ):
        self.metrics = MetricRegistry()
        self.timers = PhaseTimer()
        self.heartbeat_events = heartbeat_events
        self.heartbeat_seconds = heartbeat_seconds
        self.heartbeat_stream = heartbeat_stream

    # -- metric accessors --------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The run counter named ``name``."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """The run gauge named ``name``."""
        return self.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        """The run histogram named ``name``."""
        return self.metrics.histogram(name)

    # -- phases ------------------------------------------------------------

    def phase(self, name: str):
        """Context manager timing a named (nestable) pipeline phase."""
        return self.timers.phase(name)

    def spans(self):
        """Completed phase spans ``(path, start, end)`` for trace export."""
        return self.timers.spans()

    # -- heartbeat ---------------------------------------------------------

    def make_heartbeat(self, label: str) -> Optional[HeartbeatObserver]:
        """A heartbeat observer for this run, or None when not configured."""
        if self.heartbeat_events is None and self.heartbeat_seconds is None:
            return None
        from repro.telemetry.heartbeat import HeartbeatObserver

        return HeartbeatObserver(
            label,
            every_events=self.heartbeat_events,
            every_seconds=self.heartbeat_seconds,
            stream=self.heartbeat_stream,
        )

    # -- process stats -----------------------------------------------------

    def record_process_stats(self) -> None:
        """Snapshot host-process memory gauges (peak RSS, tracemalloc peak).

        ``resource`` is POSIX-only and ``tracemalloc`` reports only when the
        caller enabled tracing; both are gated so the method degrades to a
        no-op on platforms without them.
        """
        try:
            import resource
        except ImportError:  # pragma: no cover - non-POSIX host
            resource = None
        if resource is not None:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            # ru_maxrss is KiB on Linux, bytes on macOS; normalise to bytes.
            scale = 1 if sys.platform == "darwin" else 1024
            self.gauge("process.peak_rss_bytes").set_max(usage.ru_maxrss * scale)
        import tracemalloc

        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self.gauge("process.tracemalloc_current_bytes").set_max(current)
            self.gauge("process.tracemalloc_peak_bytes").set_max(peak)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Everything collected so far: ``{"phases": ..., "metrics": ...}``."""
        return {
            "phases": self.timers.snapshot(),
            "metrics": self.metrics.snapshot(),
        }


class _NullMetric:
    """Shared do-nothing stand-in for Counter/Gauge/Histogram."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0
    min = None
    max = None
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def set_max(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def summary(self) -> Dict[str, object]:
        return {}


class _NullPhase:
    """Shared no-op context manager returned by ``NullTelemetry.phase``."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_METRIC = _NullMetric()
_NULL_PHASE = _NullPhase()


class NullTelemetry:
    """Telemetry that measures nothing, allocates nothing, costs nothing.

    Every accessor returns a process-wide singleton, so even a caller that
    *does* invoke telemetry methods pays only the call itself -- and the
    instrumented pipelines never place telemetry observers on the event
    fan-out when handed this object (``enabled`` is False).
    """

    enabled = False

    def counter(self, name: str) -> _NullMetric:
        """The shared null metric (ignores all increments)."""
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        """The shared null metric (ignores all readings)."""
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        """The shared null metric (ignores all observations)."""
        return _NULL_METRIC

    def phase(self, name: str) -> _NullPhase:
        """The shared no-op phase context manager."""
        return _NULL_PHASE

    def spans(self) -> list:
        """No spans: a disabled run keeps no timeline."""
        return []

    def make_heartbeat(self, label: str) -> None:
        """Never a heartbeat: a disabled run stays silent and unobserved."""
        return None

    def record_process_stats(self) -> None:
        """No-op: process stats are only sampled when telemetry is on."""

    def snapshot(self) -> Dict[str, object]:
        """An empty snapshot: nothing was collected."""
        return {"phases": {}, "metrics": {}}


#: Process-wide default used wherever no telemetry was requested.
NULL_TELEMETRY = NullTelemetry()
