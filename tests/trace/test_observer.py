"""Observer plumbing tests: pipe fan-out, recording, replay."""

from __future__ import annotations

import io
import random

import numpy as np
import pytest

from repro.callgrind import CallgrindCollector
from repro.core import SigilConfig, SigilProfiler
from repro.io import dumps_callgrind, dumps_profile
from repro.telemetry import EventCounter, HeartbeatObserver
from repro.trace import (
    NullObserver,
    ObserverPipe,
    RecordingObserver,
    TraceObserver,
    replay,
)
from repro.trace.events import FnEnter, FnExit, MemRead, MemWrite, Op, OpKind
from repro.trace.observer import MEM_READ, MEM_WRITE


def emit_sample(obs):
    obs.on_run_begin()
    obs.on_fn_enter("main")
    obs.on_op(OpKind.INT, 3)
    obs.on_mem_write(0x10, 4)
    obs.on_mem_read(0x10, 4)
    obs.on_branch(0, True)
    obs.on_syscall_enter("read", 1)
    obs.on_syscall_exit("read", 2)
    obs.on_fn_exit("main")
    obs.on_run_end()


class TestPipe:
    def test_fans_out_in_order(self):
        a, b = RecordingObserver(), RecordingObserver()
        emit_sample(ObserverPipe([a, b]))
        assert a.events == b.events
        assert len(a.events) == 8

    def test_null_observer_accepts_everything(self):
        emit_sample(NullObserver())  # must not raise

    def test_protocol_runtime_checkable(self):
        assert isinstance(RecordingObserver(), TraceObserver)
        assert isinstance(NullObserver(), TraceObserver)


class CallLog:
    """A bare TraceObserver (not a BaseObserver, no batch hook) that logs
    every call it receives."""

    def __init__(self):
        self.calls = []

    def on_fn_enter(self, name): self.calls.append(("enter", name))
    def on_fn_exit(self, name): self.calls.append(("exit", name))
    def on_mem_read(self, addr, size): self.calls.append(("read", addr, size))
    def on_mem_write(self, addr, size): self.calls.append(("write", addr, size))
    def on_op(self, kind, count): self.calls.append(("op", kind, count))
    def on_branch(self, site, taken): self.calls.append(("branch", site, taken))
    def on_syscall_enter(self, name, nbytes): self.calls.append(("sys", name, nbytes))
    def on_syscall_exit(self, name, nbytes): self.calls.append(("sysret", name, nbytes))
    def on_thread_switch(self, tid): self.calls.append(("switch", tid))
    def on_run_begin(self): self.calls.append(("begin",))
    def on_run_end(self): self.calls.append(("end",))


def _mixed_calls(seed: int = 7, steps: int = 400):
    """A well-formed run of every hook over two threads, as
    ``(hook, args)`` calls."""
    rng = random.Random(seed)
    stacks = {0: [], 1: []}
    tid = 0
    calls = [("on_run_begin", ())]
    for _ in range(steps):
        roll = rng.random()
        stack = stacks[tid]
        if roll < 0.1:
            stack.append(rng.choice("fgh"))
            calls.append(("on_fn_enter", (stack[-1],)))
        elif roll < 0.2 and stack:
            calls.append(("on_fn_exit", (stack.pop(),)))
        elif roll < 0.25:
            tid = 1 - tid
            calls.append(("on_thread_switch", (tid,)))
        elif roll < 0.28:
            calls.append(("on_syscall_enter", ("read", rng.randrange(16))))
            calls.append(("on_syscall_exit", ("read", rng.randrange(16))))
        elif roll < 0.38:
            calls.append(("on_op", (rng.choice(list(OpKind)), rng.randrange(1, 4))))
        elif roll < 0.45:
            calls.append(("on_branch", (rng.randrange(4), rng.random() < 0.5)))
        else:
            hook = "on_mem_read" if roll < 0.75 else "on_mem_write"
            calls.append((hook, (rng.randrange(0, 512, 4), rng.choice((1, 4, 8)))))
    for t, stack in stacks.items():
        calls.append(("on_thread_switch", (t,)))
        calls.extend(("on_fn_exit", (name,)) for name in reversed(stack))
    calls.append(("on_run_end", ()))
    return calls


def _batched(calls, size: int):
    """``calls`` with each stretch of up to ``size`` memory accesses
    delivered as one ``on_mem_batch_runs`` call."""
    out, pending = [], []

    def flush():
        if pending:
            rkeys, rends = [], []
            for i, (hook, (_, nbytes)) in enumerate(pending, 1):
                key = (nbytes << 1) | (MEM_WRITE if hook == "on_mem_write" else MEM_READ)
                if rkeys and rkeys[-1] == key:
                    rends[-1] = i
                else:
                    rkeys.append(key)
                    rends.append(i)
            addrs = np.array([args[0] for _, args in pending], dtype=np.int64)
            out.append(("on_mem_batch_runs", (addrs, rkeys, rends)))
            pending.clear()

    for call in calls:
        if call[0] in ("on_mem_read", "on_mem_write"):
            pending.append(call)
            if len(pending) == size:
                flush()
        else:
            flush()
            out.append(call)
    return out


#: Builders of one pipe member, by name; a following Callgrind collector
#: takes the calling-context layer of the Sigil profiler built before it.
_MEMBERS = {
    "sigil": lambda built: SigilProfiler(SigilConfig(reuse_mode=True, event_mode=True)),
    "callgrind": lambda built: CallgrindCollector(
        contexts=built["sigil"].contexts if "sigil" in built else None
    ),
    "counter": lambda built: EventCounter(),
    "heartbeat": lambda built: HeartbeatObserver(
        "x", every_events=7, stream=io.StringIO(), clock=lambda: 0.0
    ),
    "recording": lambda built: RecordingObserver(),
    "bare": lambda built: CallLog(),
}


def _received(name, member):
    """What ``member`` made of the events it received."""
    if name == "sigil":
        profile = member.profile()
        return dumps_profile(profile), profile.events.segs.tolist()
    if name == "callgrind":
        return dumps_callgrind(member.profile)
    if name == "counter":
        return member.by_kind()
    if name == "heartbeat":
        return member.by_kind(), member._stream.getvalue()
    if name == "recording":
        return member.events
    return member.calls


@pytest.mark.parametrize("batch_size", [0, 5])
@pytest.mark.parametrize("mix", [
    ("sigil", "callgrind"),
    ("sigil", "callgrind", "counter"),
    ("sigil", "callgrind", "heartbeat"),
    ("counter", "heartbeat"),
    ("callgrind", "bare"),
    ("recording", "bare", "counter"),
    ("bare", "heartbeat", "recording", "sigil", "callgrind", "counter"),
])
def test_each_member_receives_what_it_receives_alone(mix, batch_size):
    """Whatever else shares the pipe, each member ends up exactly as when
    the scalar calls drive it alone (a following Callgrind collector as one
    with its own layer), whether the pipe is fed scalar or in batches."""
    scalar = _mixed_calls()
    calls = _batched(scalar, batch_size) if batch_size else scalar
    built = {}
    for name in mix:
        built[name] = _MEMBERS[name](built)
    pipe = ObserverPipe(built.values())
    for hook, args in calls:
        getattr(pipe, hook)(*args)
    for name, member in built.items():
        alone = _MEMBERS[name]({})
        for hook, args in scalar:
            getattr(alone, hook)(*args)
        assert _received(name, member) == _received(name, alone), name


class TestReplay:
    def test_replay_equals_live(self):
        live = RecordingObserver()
        emit_sample(live)
        replayed = RecordingObserver()
        replay(live.events, replayed)
        assert replayed.events == live.events

    def test_replay_into_profiler_matches_live(self):
        """A stored trace must profile identically to a live run -- the
        paper's promise that released profiles replace re-running Sigil."""
        from repro.core import SigilConfig, SigilProfiler
        from repro.io import dumps_profile

        live_rec = RecordingObserver()
        emit_sample(live_rec)

        p1 = SigilProfiler(SigilConfig(reuse_mode=True))
        emit_sample(p1)
        p2 = SigilProfiler(SigilConfig(reuse_mode=True))
        replay(live_rec.events, p2)
        assert dumps_profile(p1.profile()) == dumps_profile(p2.profile())


class TestEventDataclasses:
    def test_equality_and_hash(self):
        assert MemRead(1, 2) == MemRead(1, 2)
        assert MemRead(1, 2) != MemWrite(1, 2)
        assert hash(FnEnter("f")) == hash(FnEnter("f"))

    def test_frozen(self):
        import pytest

        ev = Op(OpKind.INT, 1)
        with pytest.raises(Exception):
            ev.count = 2
