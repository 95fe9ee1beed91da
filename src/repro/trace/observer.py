"""Observer protocol connecting execution substrates to profiling tools.

Substrates call the ``on_*`` methods directly (one virtual call per primitive,
no event-object allocation on the hot path).  The dataclasses in
:mod:`repro.trace.events` exist for persistence and testing; the
:class:`RecordingObserver` converts the method stream back into a list of
event objects when a materialised trace is wanted.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, runtime_checkable

from repro.trace.events import (
    Branch,
    ThreadSwitch,
    FnEnter,
    FnExit,
    MemRead,
    MemWrite,
    Op,
    OpKind,
    SyscallEnter,
    SyscallExit,
    TraceEvent,
)

__all__ = [
    "MEM_READ",
    "MEM_WRITE",
    "TraceObserver",
    "BaseObserver",
    "NullObserver",
    "ObserverPipe",
    "RecordingObserver",
    "replay",
]

#: Kind codes used in the ``kinds`` array of a memory-access batch.
MEM_READ = 0
MEM_WRITE = 1


def _expand_batch(observer, addrs, sizes, kinds) -> None:
    """Replay a memory-access batch into scalar observer calls, in order."""
    addrs = addrs.tolist() if hasattr(addrs, "tolist") else addrs
    sizes = sizes.tolist() if hasattr(sizes, "tolist") else sizes
    kinds = kinds.tolist() if hasattr(kinds, "tolist") else kinds
    read = observer.on_mem_read
    write = observer.on_mem_write
    for addr, size, kind in zip(addrs, sizes, kinds):
        if kind == MEM_READ:
            read(addr, size)
        else:
            write(addr, size)


def _expand_branch_batch(observer, sites, takens) -> None:
    """Replay a branch batch into scalar ``on_branch`` calls, in order."""
    sites = sites.tolist() if hasattr(sites, "tolist") else sites
    takens = takens.tolist() if hasattr(takens, "tolist") else takens
    branch = observer.on_branch
    for site, taken in zip(sites, takens):
        branch(site, bool(taken))


@runtime_checkable
class TraceObserver(Protocol):
    """Anything that can watch a program execute.

    The paper notes Sigil "can use any framework that identifies
    communicating entities, and exposes addresses and operations to the
    tool"; this protocol is that contract.
    """

    def on_fn_enter(self, name: str) -> None: ...

    def on_fn_exit(self, name: str) -> None: ...

    def on_mem_read(self, addr: int, size: int) -> None: ...

    def on_mem_write(self, addr: int, size: int) -> None: ...

    def on_mem_batch(self, addrs, sizes, kinds) -> None: ...

    def on_op(self, kind: OpKind, count: int) -> None: ...

    def on_branch(self, site: int, taken: bool) -> None: ...

    def on_branch_batch(self, sites, takens) -> None: ...

    def on_syscall_enter(self, name: str, input_bytes: int) -> None: ...

    def on_syscall_exit(self, name: str, output_bytes: int) -> None: ...

    def on_thread_switch(self, tid: int) -> None: ...

    def on_run_begin(self) -> None: ...

    def on_run_end(self) -> None: ...


class BaseObserver:
    """No-op implementation of :class:`TraceObserver`; subclass and override."""

    #: Declares whether this observer's *output* depends on how memory
    #: accesses interleave with op/branch events on the instruction-count
    #: clock (e.g. re-use lifetime timestamps).  The batched transport
    #: (:class:`repro.trace.batch.BatchingTransport`) flushes its buffer
    #: before every op when this is true, so per-access timestamps stay
    #: byte-identical to the scalar path.  Order *among* memory accesses is
    #: always preserved regardless of this flag.
    batch_time_strict: bool = False

    #: Whether batch delivery actually speeds this observer up.  Observers
    #: that process batches only by scalar expansion (the Sigil profiler,
    #: whose one memory kernel is the scalar one) gain nothing from
    #: buffering, so the harness skips the transport when nothing
    #: downstream benefits.  Output is byte-identical either way -- this is
    #: purely a performance hint.
    batch_beneficial: bool = True

    #: Opt-in for the transport's run-length side channel.  When true the
    #: transport delivers memory batches through ``on_mem_batch_runs(addrs,
    #: rkeys, rends)`` instead of materialising per-access ``sizes``/``kinds``
    #: arrays: ``addrs`` is the int64 address array, and run ``i`` covers
    #: ``addrs[rends[i-1]:rends[i]]`` with packed key ``rkeys[i] ==
    #: (size << 1) | kind``.  Real access streams are long same-size,
    #: same-kind runs, so the descriptor lists are tiny and the downstream
    #: kernel can derive its counters without touching NumPy at all.
    batch_accepts_runs: bool = False

    def on_fn_enter(self, name: str) -> None:
        pass

    def on_fn_exit(self, name: str) -> None:
        pass

    def on_mem_read(self, addr: int, size: int) -> None:
        pass

    def on_mem_write(self, addr: int, size: int) -> None:
        pass

    def on_mem_batch(self, addrs, sizes, kinds) -> None:
        """A batch of memory accesses, in program order.

        ``addrs``/``sizes``/``kinds`` are parallel sequences (typically
        NumPy array views into the transport's ring buffer -- do not retain
        them past the call).  ``kinds[i]`` is :data:`MEM_READ` or
        :data:`MEM_WRITE`.  The default implementation expands the batch
        back into scalar ``on_mem_read``/``on_mem_write`` calls in order,
        so observers that never heard of batching keep working unchanged;
        batch-aware observers override this with a vectorised kernel.
        """
        _expand_batch(self, addrs, sizes, kinds)

    def on_op(self, kind: OpKind, count: int) -> None:
        pass

    def on_branch(self, site: int, taken: bool) -> None:
        pass

    def on_branch_batch(self, sites, takens) -> None:
        """A batch of branch events, in program order.

        ``sites``/``takens`` are parallel sequences (int64 sites, bool
        outcomes).  The default implementation expands back into scalar
        ``on_branch`` calls; observers with a vectorised predictor override
        it.  Only lenient (``batch_time_strict = False``) observers ever see
        branch batches -- the transport forwards branches scalar, in exact
        stream order, to strict ones.
        """
        _expand_branch_batch(self, sites, takens)

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        pass

    def on_syscall_exit(self, name: str, output_bytes: int) -> None:
        pass

    def on_thread_switch(self, tid: int) -> None:
        pass

    def on_run_begin(self) -> None:
        pass

    def on_run_end(self) -> None:
        pass


class NullObserver(BaseObserver):
    """Observer that ignores everything.

    Running a substrate with a ``NullObserver`` is the reproduction's
    equivalent of a *native* run: the program executes with no tool attached,
    which is the baseline for the slowdown characterisation (Figure 4).
    """


class ObserverPipe(BaseObserver):
    """Fan a single trace stream out to several observers, in order.

    This mirrors how Sigil runs *alongside* Callgrind in one process: one
    instrumentation pass feeds both tools.
    """

    def __init__(self, observers: Iterable[TraceObserver]):
        self.observers: List[TraceObserver] = list(observers)

    @property
    def batch_time_strict(self) -> bool:  # type: ignore[override]
        """Strict if any fan-out target needs scalar-exact clock ordering."""
        return any(
            getattr(obs, "batch_time_strict", False) for obs in self.observers
        )

    @property
    def batch_beneficial(self) -> bool:  # type: ignore[override]
        """Batching pays off if it pays off for any fan-out target."""
        return any(
            getattr(obs, "batch_beneficial", True) for obs in self.observers
        )

    def on_mem_batch(self, addrs, sizes, kinds) -> None:
        # Each observer receives the whole batch in order; observers without
        # a batch kernel fall back to scalar expansion via BaseObserver.
        for obs in self.observers:
            hook = getattr(obs, "on_mem_batch", None)
            if hook is not None:
                hook(addrs, sizes, kinds)
            else:  # bare TraceObserver without the batching mixin
                _expand_batch(obs, addrs, sizes, kinds)

    def on_branch_batch(self, sites, takens) -> None:
        for obs in self.observers:
            hook = getattr(obs, "on_branch_batch", None)
            if hook is not None:
                hook(sites, takens)
            else:  # bare TraceObserver without the batching mixin
                _expand_branch_batch(obs, sites, takens)

    def on_fn_enter(self, name: str) -> None:
        for obs in self.observers:
            obs.on_fn_enter(name)

    def on_fn_exit(self, name: str) -> None:
        for obs in self.observers:
            obs.on_fn_exit(name)

    def on_mem_read(self, addr: int, size: int) -> None:
        for obs in self.observers:
            obs.on_mem_read(addr, size)

    def on_mem_write(self, addr: int, size: int) -> None:
        for obs in self.observers:
            obs.on_mem_write(addr, size)

    def on_op(self, kind: OpKind, count: int) -> None:
        for obs in self.observers:
            obs.on_op(kind, count)

    def on_branch(self, site: int, taken: bool) -> None:
        for obs in self.observers:
            obs.on_branch(site, taken)

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        for obs in self.observers:
            obs.on_syscall_enter(name, input_bytes)

    def on_syscall_exit(self, name: str, output_bytes: int) -> None:
        for obs in self.observers:
            obs.on_syscall_exit(name, output_bytes)

    def on_thread_switch(self, tid: int) -> None:
        for obs in self.observers:
            obs.on_thread_switch(tid)

    def on_run_begin(self) -> None:
        for obs in self.observers:
            obs.on_run_begin()

    def on_run_end(self) -> None:
        for obs in self.observers:
            obs.on_run_end()


class RecordingObserver(BaseObserver):
    """Materialise the trace as a list of event objects (tests, replays).

    A recorded trace preserves the exact scalar event order, so the recorder
    is *time strict*: a batching transport must not let op/branch events
    overtake buffered memory accesses on their way here.  Batches themselves
    are expanded back to one :class:`MemRead`/:class:`MemWrite` per access
    (the inherited scalar expansion), keeping recorded traces
    representation-independent.
    """

    batch_time_strict = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def on_fn_enter(self, name: str) -> None:
        self.events.append(FnEnter(name))

    def on_fn_exit(self, name: str) -> None:
        self.events.append(FnExit(name))

    def on_mem_read(self, addr: int, size: int) -> None:
        self.events.append(MemRead(addr, size))

    def on_mem_write(self, addr: int, size: int) -> None:
        self.events.append(MemWrite(addr, size))

    def on_op(self, kind: OpKind, count: int) -> None:
        self.events.append(Op(kind, count))

    def on_branch(self, site: int, taken: bool) -> None:
        self.events.append(Branch(site, taken))

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        self.events.append(SyscallEnter(name, input_bytes))

    def on_syscall_exit(self, name: str, output_bytes: int) -> None:
        self.events.append(SyscallExit(name, output_bytes))

    def on_thread_switch(self, tid: int) -> None:
        self.events.append(ThreadSwitch(tid))


def replay(
    events: Iterable[TraceEvent],
    observer: TraceObserver,
    *,
    batch_size: int = 0,
) -> None:
    """Replay a materialised trace into an observer.

    The paper promises to "release the profile data for many commonly used
    benchmarks ... researchers can use the data without running Sigil";
    ``replay`` is the mechanism that makes a stored trace equivalent to a
    live run.

    With ``batch_size > 0`` the replay goes through a
    :class:`repro.trace.batch.BatchingTransport`, so stored traces exercise
    exactly the batched transport live substrates use (memory accesses are
    accumulated and delivered via ``on_mem_batch`` at flush boundaries).
    The observed profile is identical either way.
    """
    if batch_size:
        from repro.trace.batch import BatchingTransport

        observer = BatchingTransport(observer, batch_size)
    observer.on_run_begin()
    for ev in events:
        if isinstance(ev, MemRead):
            observer.on_mem_read(ev.addr, ev.size)
        elif isinstance(ev, MemWrite):
            observer.on_mem_write(ev.addr, ev.size)
        elif isinstance(ev, Op):
            observer.on_op(ev.kind, ev.count)
        elif isinstance(ev, FnEnter):
            observer.on_fn_enter(ev.name)
        elif isinstance(ev, FnExit):
            observer.on_fn_exit(ev.name)
        elif isinstance(ev, Branch):
            observer.on_branch(ev.site, ev.taken)
        elif isinstance(ev, SyscallEnter):
            observer.on_syscall_enter(ev.name, ev.input_bytes)
        elif isinstance(ev, SyscallExit):
            observer.on_syscall_exit(ev.name, ev.output_bytes)
        elif isinstance(ev, ThreadSwitch):
            observer.on_thread_switch(ev.tid)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown trace event: {ev!r}")
    observer.on_run_end()
