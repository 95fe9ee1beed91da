"""Event accounting observer: how many primitives the fan-out dispatched.

The :class:`EventCounter` rides in the :class:`~repro.trace.observer.
ObserverPipe` *only when telemetry is enabled*, so a run without telemetry
dispatches exactly the same Python-level calls per event as the seed code
did -- the zero-cost guarantee the overhead figures depend on.  Each
``on_*`` method is a single integer increment; the per-kind totals are
published into the metric registry once, after the run.
"""

from __future__ import annotations

from typing import Dict

from repro.trace.events import OpKind
from repro.trace.observer import MEM_WRITE, BaseObserver

__all__ = ["EventCounter"]


class EventCounter(BaseObserver):
    """Counts dispatched trace primitives by kind (one int add per event)."""

    #: The run hook adds one count per run, so the counter never keeps a
    #: pipe of batch kernels off the transport.
    batch_beneficial = True

    __slots__ = (
        "fn_enters",
        "fn_exits",
        "mem_reads",
        "mem_writes",
        "ops",
        "op_units",
        "branches",
        "syscalls",
        "thread_switches",
    )

    def __init__(self) -> None:
        self.fn_enters = 0
        self.fn_exits = 0
        self.mem_reads = 0
        self.mem_writes = 0
        self.ops = 0
        self.op_units = 0
        self.branches = 0
        self.syscalls = 0
        self.thread_switches = 0

    def on_fn_enter(self, name: str) -> None:
        self.fn_enters += 1

    def on_fn_exit(self, name: str) -> None:
        self.fn_exits += 1

    def on_mem_read(self, addr: int, size: int) -> None:
        self.mem_reads += 1

    def on_mem_write(self, addr: int, size: int) -> None:
        self.mem_writes += 1

    def on_mem_batch_runs(self, addrs, rkeys, rends) -> None:
        # Batches count as their scalar equivalent, so events_total (and
        # events/sec) stay comparable between transport modes.
        start = 0
        for key, end in zip(rkeys, rends):
            if key & MEM_WRITE:
                self.mem_writes += end - start
            else:
                self.mem_reads += end - start
            start = end

    def on_op(self, kind: OpKind, count: int) -> None:
        self.ops += 1
        self.op_units += count

    def on_branch(self, site: int, taken: bool) -> None:
        self.branches += 1

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        self.syscalls += 1

    def on_thread_switch(self, tid: int) -> None:
        self.thread_switches += 1

    @property
    def total(self) -> int:
        """Total primitives dispatched (syscall enter+exit counted once)."""
        return (
            self.fn_enters
            + self.fn_exits
            + self.mem_reads
            + self.mem_writes
            + self.ops
            + self.branches
            + self.syscalls
            + self.thread_switches
        )

    def by_kind(self) -> Dict[str, int]:
        """Per-kind dispatch counts, JSON-ready."""
        return {
            "fn_enter": self.fn_enters,
            "fn_exit": self.fn_exits,
            "mem_read": self.mem_reads,
            "mem_write": self.mem_writes,
            "op": self.ops,
            "op_units": self.op_units,
            "branch": self.branches,
            "syscall": self.syscalls,
            "thread_switch": self.thread_switches,
        }

    def publish(self, telemetry) -> None:
        """Push the final per-kind totals into ``telemetry``'s registry."""
        for kind, count in self.by_kind().items():
            telemetry.counter(f"events.{kind}").inc(count)
        telemetry.counter("events.total").inc(self.total)
