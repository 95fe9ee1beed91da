"""Observer protocol connecting execution substrates to profiling tools.

Substrates call the ``on_*`` methods directly (one virtual call per primitive,
no event-object allocation on the hot path).  The dataclasses in
:mod:`repro.trace.events` exist for persistence and testing; the
:class:`RecordingObserver` converts the method stream back into a list of
event objects when a materialised trace is wanted.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Protocol, Tuple, runtime_checkable

import numpy as np

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

#: Kind bit of a run key ``(size << 1) | kind`` in a memory-access batch.
MEM_READ = 0
MEM_WRITE = 1


def _expand_runs(observer, addrs, rkeys, rends) -> None:
    """Replay a run-length memory batch into scalar observer calls, in order."""
    if not isinstance(addrs, list):
        addrs = addrs.tolist()
    read = observer.on_mem_read
    write = observer.on_mem_write
    start = 0
    for key, end in zip(rkeys, rends):
        size = key >> 1
        access = write if key & MEM_WRITE else read
        for addr in addrs[start:end]:
            access(addr, size)
        start = end


def _expand_lines(addrs, sizes, shift: int):
    """Line numbers a memory batch touches, concatenated in program order.

    ``sizes`` is one ``int`` size for the whole batch (a single run) or an
    array with one per access.  A size-0 access touches the line at its
    address.  Returns ``(lines, counts)``, where ``counts`` holds each
    access's number of lines, or is None when every access touches exactly
    one line (the common case, which skips the ragged expansion).
    """
    lo = addrs >> shift
    if isinstance(sizes, int):
        # One size: an access straddles a line boundary exactly when its
        # offset within the line plus the size overruns the line, so the
        # largest offset settles the whole batch.
        span = max(sizes, 1) - 1
        line = 1 << shift
        if not span or int((addrs & (line - 1)).max()) + span < line:
            return lo, None
        hi = (addrs + span) >> shift
    else:
        hi = (addrs + (np.maximum(sizes, 1) - 1)) >> shift
        if (lo == hi).all():
            return lo, None
    counts = hi - lo + 1
    ends = np.cumsum(counts)
    # Access i's lines lo[i], lo[i] + 1, ... sit at output positions
    # ends[i] - counts[i], ends[i] - counts[i] + 1, ...
    offsets = np.repeat(lo - (ends - counts), counts)
    return offsets + np.arange(int(ends[-1]), dtype=np.int64), counts


@runtime_checkable
class TraceObserver(Protocol):
    """Anything that can watch a program execute.

    The paper notes Sigil "can use any framework that identifies
    communicating entities, and exposes addresses and operations to the
    tool"; this protocol is that contract.  It is the one list of hooks:
    each does nothing, and :class:`BaseObserver` inherits them as its
    no-ops.
    """

    def on_fn_enter(self, name: str) -> None: ...

    def on_fn_exit(self, name: str) -> None: ...

    def on_mem_read(self, addr: int, size: int) -> None: ...

    def on_mem_write(self, addr: int, size: int) -> None: ...

    def on_mem_batch_runs(self, addrs, rkeys, rends) -> None: ...

    def on_op(self, kind: OpKind, count: int) -> None: ...

    def on_branch(self, site: int, taken: bool) -> None: ...

    def on_syscall_enter(self, name: str, input_bytes: int) -> None: ...

    def on_syscall_exit(self, name: str, output_bytes: int) -> None: ...

    def on_thread_switch(self, tid: int) -> None: ...

    def on_run_begin(self) -> None: ...

    def on_run_end(self) -> None: ...


class BaseObserver(TraceObserver):
    """No-op implementation of :class:`TraceObserver`; subclass and override."""

    #: Declares whether this observer's *output* depends on how memory
    #: accesses interleave with op/branch events on the instruction-count
    #: clock (e.g. re-use lifetime timestamps).  The batched transport
    #: (:class:`repro.trace.batch.BatchingTransport`) flushes its buffer
    #: before every op and branch when this is true, so per-access timestamps stay
    #: byte-identical to the scalar path.  Order *among* memory accesses is
    #: always preserved regardless of this flag.
    batch_time_strict: bool = False

    #: Whether this observer has a batch kernel that pays for buffering.
    #: Opt-in: Callgrind, the line re-use profiler and the telemetry event
    #: counter (whose run hook is O(runs)) set it.  Observers that replay a
    #: batch through their scalar path (the Sigil profiler) do not, nor
    #: does the heartbeat, and :class:`ObserverPipe` is beneficial only
    #: when every member is, so the harness builds the transport only when
    #: every attached tool has a batch kernel.  Output is byte-identical
    #: either way -- this is purely a performance hint.
    batch_beneficial: bool = False

    def on_mem_batch_runs(self, addrs, rkeys, rends) -> None:
        """A batch of memory accesses, in program order, as runs.

        ``addrs`` is the int64 address array.  Run ``i`` covers
        ``addrs[rends[i-1]:rends[i]]`` (from 0 for the first run), all of
        one size and kind, packed as ``rkeys[i] == (size << 1) | kind``
        with kind :data:`MEM_READ` or :data:`MEM_WRITE`.  Real access
        streams are long same-size, same-kind runs, so the descriptor lists
        are short.  Every member of a pipe receives the same objects: read
        them, do not modify them.  The default implementation replays the
        batch as scalar ``on_mem_read``/``on_mem_write`` calls in order;
        observers with a batch kernel override it.
        """
        _expand_runs(self, addrs, rkeys, rends)


class NullObserver(BaseObserver):
    """Observer that ignores everything.

    Running a substrate with a ``NullObserver`` is the reproduction's
    equivalent of a *native* run: the program executes with no tool attached,
    which is the baseline for the slowdown characterisation (Figure 4).
    """


class ObserverPipe(BaseObserver):
    """Fan a single trace stream out to several observers, in order.

    This mirrors how Sigil runs *alongside* Callgrind in one process: one
    instrumentation pass feeds both tools.  Like a Valgrind tool, a member
    is called only for the events it handles: each hook is bound once,
    when the pipe is built, to the members that implement it.  A member's
    inherited :class:`BaseObserver` no-op is left out; a hook one member
    implements is that member's bound method, so the pipe adds no call; a
    hook several implement runs them in order.  A member without a batch
    hook gets each batch replayed as scalar calls.
    """

    def __init__(self, observers: Iterable[TraceObserver]):
        self.observers: Tuple[TraceObserver, ...] = tuple(observers)
        #: Strict if any member needs scalar-exact clock ordering.
        self.batch_time_strict = any(
            getattr(obs, "batch_time_strict", False) for obs in self.observers
        )
        #: Batching pays off only if it pays off for every member: one
        #: member without a batch kernel replays every batch access by
        #: access, so the pipe would pay the buffering on top of the
        #: scalar path it would have taken anyway.
        self.batch_beneficial = all(
            getattr(obs, "batch_beneficial", False) for obs in self.observers
        )
        for name in _ARITY:
            hooks = [
                hook
                for hook in (_member_hook(obs, name) for obs in self.observers)
                if hook is not None
            ]
            if hooks:
                setattr(self, name, fan_out(name, hooks))


def _member_hook(observer, name: str):
    """``observer``'s bound ``name`` hook, or None where it does nothing."""
    if name == "on_mem_batch_runs":
        hook = getattr(observer, name, None)
        # A bare TraceObserver without the batch hook: replay scalar.
        return hook if hook is not None else partial(_expand_runs, observer)
    hook = getattr(observer, name)
    return None if getattr(hook, "__func__", None) in _NO_OPS else hook


def fan_out(name: str, hooks):
    """One ``name`` hook that runs ``hooks`` in order: the lone hook itself,
    or one loop over them that takes the hook's parameters explicitly (a
    ``*args`` loop costs more per call)."""
    hooks = tuple(hooks)
    if len(hooks) == 1:
        return hooks[0]
    arity = _ARITY[name]
    if arity == 0:
        def call_each():
            for hook in hooks:
                hook()
    elif arity == 1:
        def call_each(a):
            for hook in hooks:
                hook(a)
    elif arity == 2:
        def call_each(a, b):
            for hook in hooks:
                hook(a, b)
    else:
        def call_each(a, b, c):
            for hook in hooks:
                hook(a, b, c)
    return call_each


#: Each :class:`TraceObserver` hook's parameter count: the one list of
#: hooks :class:`ObserverPipe` binds.
_ARITY = {
    name: func.__code__.co_argcount - 1
    for name, func in vars(TraceObserver).items()
    if name.startswith("on_")
}

#: The no-op hooks :class:`BaseObserver` inherits (its batch hook is a
#: scalar replay).
_NO_OPS = frozenset(
    vars(TraceObserver)[name] for name in _ARITY if name != "on_mem_batch_runs"
)


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


def replay(events: Iterable[TraceEvent], observer: TraceObserver) -> None:
    """Replay a materialised trace into an observer.

    The paper promises to "release the profile data for many commonly used
    benchmarks ... researchers can use the data without running Sigil";
    ``replay`` is the mechanism that makes a stored trace equivalent to a
    live run.  To drive the batched transport, pass a
    :class:`repro.trace.batch.BatchingTransport` as ``observer``; the
    observed profile is identical either way.
    """
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
