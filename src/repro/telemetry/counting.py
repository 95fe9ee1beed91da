"""Event accounting observer: how many primitives the fan-out dispatched.

The :class:`EventCounter` rides in the :class:`~repro.trace.observer.
ObserverPipe` *only when telemetry is enabled*, so a run without telemetry
dispatches zero additional Python-level calls per event -- the zero-cost
guarantee the overhead figures depend on.  Each ``on_*`` method is an
integer increment plus one countdown step; the per-kind totals are
published into the metric registry once, after the run.  The countdown is
how the heartbeat, a counter that beats, reads the one event count.
"""

from __future__ import annotations

from typing import Dict

from repro.trace.events import OpKind
from repro.trace.observer import MEM_WRITE, BaseObserver, _expand_runs

__all__ = ["EventCounter"]

#: The counts kept, each under its published ``events.<kind>`` name.
KINDS = (
    "fn_enter", "fn_exit", "mem_read", "mem_write", "op", "op_units",
    "branch", "syscall", "thread_switch",
)

#: The longest countdown: the largest int with CPython's one-digit fast
#: arithmetic.  A plain counter rewinds to it whenever it runs out.
NEVER = (1 << 30) - 1


class EventCounter(BaseObserver):
    """Counts dispatched trace primitives by kind (one int add per event)."""

    #: The run hook adds one count per run, so the counter never keeps a
    #: pipe of batch kernels off the transport.
    batch_beneficial = True

    __slots__ = (*KINDS, "countdown")

    def __init__(self) -> None:
        for kind in KINDS:
            setattr(self, kind, 0)
        #: Events left until :meth:`_due` runs.
        self.countdown = NEVER

    def on_fn_enter(self, name: str) -> None:
        self.fn_enter += 1
        self.countdown -= 1
        if not self.countdown:
            self._due()

    def on_fn_exit(self, name: str) -> None:
        self.fn_exit += 1
        self.countdown -= 1
        if not self.countdown:
            self._due()

    def on_mem_read(self, addr: int, size: int) -> None:
        self.mem_read += 1
        self.countdown -= 1
        if not self.countdown:
            self._due()

    def on_mem_write(self, addr: int, size: int) -> None:
        self.mem_write += 1
        self.countdown -= 1
        if not self.countdown:
            self._due()

    def on_mem_batch_runs(self, addrs, rkeys, rends) -> None:
        # Batches count as their scalar equivalent, so events_total (and
        # events/sec) stay comparable between transport modes.  A batch the
        # countdown runs out in is counted access by access, so _due runs
        # at its exact event.
        if self.countdown <= len(addrs):
            _expand_runs(self, addrs, rkeys, rends)
            return
        self.countdown -= len(addrs)
        start = 0
        for key, end in zip(rkeys, rends):
            if key & MEM_WRITE:
                self.mem_write += end - start
            else:
                self.mem_read += end - start
            start = end

    def on_op(self, kind: OpKind, count: int) -> None:
        self.op += 1
        self.op_units += count
        self.countdown -= 1
        if not self.countdown:
            self._due()

    def on_branch(self, site: int, taken: bool) -> None:
        self.branch += 1
        self.countdown -= 1
        if not self.countdown:
            self._due()

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        self.syscall += 1
        self.countdown -= 1
        if not self.countdown:
            self._due()

    def on_thread_switch(self, tid: int) -> None:
        self.thread_switch += 1
        self.countdown -= 1
        if not self.countdown:
            self._due()

    def on_run_end(self) -> None:
        self._due(final=True)

    def _due(self, final: bool = False) -> None:
        """The countdown ran out, or the run ended (``final``).

        A plain counter rewinds; the heartbeat
        (:class:`~repro.telemetry.heartbeat.HeartbeatObserver`) beats.
        """
        self.countdown = NEVER

    @property
    def total(self) -> int:
        """Total primitives dispatched (syscall enter+exit counted once):
        every kind but ``op_units``, which counts op units, not events."""
        return sum(self.by_kind().values()) - self.op_units

    def by_kind(self) -> Dict[str, int]:
        """Per-kind dispatch counts, JSON-ready."""
        return {kind: getattr(self, kind) for kind in KINDS}

    def publish(self, telemetry) -> None:
        """Push the final per-kind totals into ``telemetry``'s registry."""
        for kind, count in self.by_kind().items():
            telemetry.counter(f"events.{kind}").inc(count)
        telemetry.counter("events.total").inc(self.total)
