"""Differential property test: the vectorised shadow-memory profiler versus
a byte-at-a-time pure-Python reference model of section II's methodology.

The reference model is deliberately naive (one dict entry per byte, no
NumPy, no paging) so that any disagreement points at the optimised
implementation.  Hypothesis drives random interleavings of function
enter/exit, reads, and writes over a small address range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SigilConfig, SigilProfiler
from repro.io.profilefile import dumps_profile
from repro.trace.batch import BatchingTransport
from repro.trace.events import OpKind


@dataclass
class _RefByte:
    writer: Optional[Tuple[str, ...]] = None
    reader: Optional[Tuple[str, ...]] = None
    reader_call: int = -1


class ReferenceSigil:
    """Unit-at-a-time reference implementation of the classification.

    ``line_size`` generalises the model to the line-granularity mode: a unit
    is ``line_size`` bytes and every touched unit is credited at that scale,
    exactly as the optimised profiler does.
    """

    def __init__(self, line_size: int = 1) -> None:
        self.stack: List[Tuple[str, ...]] = [()]
        self.call_stack: List[int] = [0]
        self.call_counter = 0
        self.line_size = line_size
        self._shift = line_size.bit_length() - 1
        self.bytes: Dict[int, _RefByte] = {}
        # (writer_path|None, reader_path) -> [unique, nonunique]
        self.edges: Dict[Tuple[Optional[Tuple[str, ...]], Tuple[str, ...]], List[int]] = {}

    def enter(self, name: str) -> None:
        self.stack.append(self.stack[-1] + (name,))
        self.call_counter += 1
        self.call_stack.append(self.call_counter)

    def exit(self) -> None:
        self.stack.pop()
        self.call_stack.pop()

    def _units(self, addr: int, size: int) -> range:
        if size <= 0:
            # A zero-byte access moves no data and touches no shadow state.
            return range(0)
        return range(addr >> self._shift, ((addr + size - 1) >> self._shift) + 1)

    def write(self, addr: int, size: int) -> None:
        ctx = self.stack[-1]
        for a in self._units(addr, size):
            self.bytes[a] = _RefByte(writer=ctx)

    def read(self, addr: int, size: int) -> None:
        ctx = self.stack[-1]
        for a in self._units(addr, size):
            shadow = self.bytes.setdefault(a, _RefByte())
            unique = shadow.reader != ctx
            key = (shadow.writer, ctx)
            counts = self.edges.setdefault(key, [0, 0])
            counts[0 if unique else 1] += self.line_size
            shadow.reader = ctx
            shadow.reader_call = self.call_stack[-1]


# -- trace generation -------------------------------------------------------

_FN_NAMES = ("f", "g", "h")


@st.composite
def traces(draw):
    """A random well-formed trace: balanced enters/exits, small accesses."""
    n_steps = draw(st.integers(min_value=1, max_value=60))
    steps = []
    depth = 0
    for _ in range(n_steps):
        kinds = ["read", "write", "enter"]
        if depth > 0:
            kinds.append("exit")
        kind = draw(st.sampled_from(kinds))
        if kind == "enter":
            steps.append(("enter", draw(st.sampled_from(_FN_NAMES))))
            depth += 1
        elif kind == "exit":
            steps.append(("exit",))
            depth -= 1
        else:
            addr = draw(st.integers(min_value=0, max_value=40))
            size = draw(st.integers(min_value=1, max_value=12))
            steps.append((kind, addr, size))
    for _ in range(depth):
        steps.append(("exit",))
    return steps


def run_both(steps):
    profiler = SigilProfiler(SigilConfig())
    ref = ReferenceSigil()
    profiler.on_run_begin()
    exits: List[str] = []
    for step in steps:
        if step[0] == "enter":
            profiler.on_fn_enter(step[1])
            ref.enter(step[1])
            exits.append(step[1])
        elif step[0] == "exit":
            profiler.on_fn_exit(exits.pop())
            ref.exit()
        elif step[0] == "read":
            profiler.on_mem_read(step[1], step[2])
            ref.read(step[1], step[2])
        else:
            profiler.on_mem_write(step[1], step[2])
            ref.write(step[1], step[2])
    profiler.on_run_end()
    return profiler.profile(), ref


@given(traces())
@settings(max_examples=200, deadline=None)
def test_edges_match_reference(steps):
    prof, ref = run_both(steps)

    def path_of(ctx_id: int) -> Optional[Tuple[str, ...]]:
        return None if ctx_id < 0 else prof.tree.node(ctx_id).path

    got = {
        (path_of(w), path_of(r)): [e.unique_bytes, e.nonunique_bytes]
        for (w, r), e in prof.comm.items()
    }
    assert got == ref.edges


@given(traces())
@settings(max_examples=100, deadline=None)
def test_read_bytes_fully_classified(steps):
    """Invariant: every function's raw read traffic equals the sum of edge
    bytes attributed to it as reader."""
    prof, _ = run_both(steps)
    for node in prof.contexts():
        classified = sum(
            e.total_bytes for (_, r), e in prof.comm.items() if r == node.id
        )
        assert classified == prof.fn_comm(node.id).read_bytes


@given(traces())
@settings(max_examples=100, deadline=None)
def test_unique_at_most_address_span_per_writer(steps):
    """A reader can take at most one unique byte per (address, generation);
    with addresses bounded to [0, 52), unique bytes from the invalid
    producer can never exceed the span."""
    prof, _ = run_both(steps)
    from repro.common.cct import INVALID_CTX

    for (w, r), e in prof.comm.items():
        if w == INVALID_CTX:
            assert e.unique_bytes <= 52


@st.composite
def page_boundary_traces(draw):
    """Traces whose accesses straddle the 4096-byte shadow page boundary."""
    n_steps = draw(st.integers(min_value=1, max_value=40))
    steps = []
    depth = 0
    for _ in range(n_steps):
        kinds = ["read", "write", "enter"]
        if depth > 0:
            kinds.append("exit")
        kind = draw(st.sampled_from(kinds))
        if kind == "enter":
            steps.append(("enter", draw(st.sampled_from(_FN_NAMES))))
            depth += 1
        elif kind == "exit":
            steps.append(("exit",))
            depth -= 1
        else:
            addr = draw(st.integers(min_value=4080, max_value=4112))
            size = draw(st.integers(min_value=1, max_value=24))
            steps.append((kind, addr, size))
    steps.extend([("exit",)] * depth)
    return steps


@given(page_boundary_traces())
@settings(max_examples=120, deadline=None)
def test_page_straddling_matches_reference(steps):
    """Classification must be identical when ranges cross shadow pages."""
    prof, ref = run_both(steps)

    def path_of(ctx_id):
        return None if ctx_id < 0 else prof.tree.node(ctx_id).path

    got = {
        (path_of(w), path_of(r)): [e.unique_bytes, e.nonunique_bytes]
        for (w, r), e in prof.comm.items()
    }
    assert got == ref.edges


class ThreadedReferenceSigil(ReferenceSigil):
    """Reference model with per-thread call stacks (shared shadow bytes)."""

    def __init__(self) -> None:
        super().__init__()
        self._threads = {0: (self.stack, self.call_stack)}
        self._tid = 0

    def switch(self, tid: int) -> None:
        if tid == self._tid:
            return
        self._threads[self._tid] = (self.stack, self.call_stack)
        if tid not in self._threads:
            self.call_counter += 1
            self._threads[tid] = ([()], [self.call_counter])
        self.stack, self.call_stack = self._threads[tid]
        self._tid = tid


@st.composite
def threaded_traces(draw):
    """Random interleavings across up to three virtual threads."""
    n_steps = draw(st.integers(min_value=1, max_value=60))
    steps = []
    depths = {0: 0, 1: 0, 2: 0}
    tid = 0
    for _ in range(n_steps):
        kinds = ["read", "write", "enter", "switch"]
        if depths[tid] > 0:
            kinds.append("exit")
        kind = draw(st.sampled_from(kinds))
        if kind == "switch":
            tid = draw(st.sampled_from([0, 1, 2]))
            steps.append(("switch", tid))
        elif kind == "enter":
            steps.append(("enter", draw(st.sampled_from(_FN_NAMES))))
            depths[tid] += 1
        elif kind == "exit":
            steps.append(("exit",))
            depths[tid] -= 1
        else:
            addr = draw(st.integers(min_value=0, max_value=40))
            size = draw(st.integers(min_value=1, max_value=12))
            steps.append((kind, addr, size))
    # Drain every thread's stack.
    for t, depth in depths.items():
        if depth:
            steps.append(("switch", t))
            steps.extend([("exit",)] * depth)
    return steps


def run_both_threaded(steps):
    profiler = SigilProfiler(SigilConfig())
    ref = ThreadedReferenceSigil()
    profiler.on_run_begin()
    exits = {0: [], 1: [], 2: []}
    tid = 0
    for step in steps:
        if step[0] == "switch":
            tid = step[1]
            profiler.on_thread_switch(tid)
            ref.switch(tid)
        elif step[0] == "enter":
            profiler.on_fn_enter(step[1])
            ref.enter(step[1])
            exits[tid].append(step[1])
        elif step[0] == "exit":
            profiler.on_fn_exit(exits[tid].pop())
            ref.exit()
        elif step[0] == "read":
            profiler.on_mem_read(step[1], step[2])
            ref.read(step[1], step[2])
        else:
            profiler.on_mem_write(step[1], step[2])
            ref.write(step[1], step[2])
    profiler.on_run_end()
    return profiler.profile(), ref


@given(threaded_traces())
@settings(max_examples=150, deadline=None)
def test_threaded_edges_match_reference(steps):
    """Cross-thread classification equals the per-thread reference model."""
    prof, ref = run_both_threaded(steps)

    def path_of(ctx_id):
        return None if ctx_id < 0 else prof.tree.node(ctx_id).path

    got = {
        (path_of(w), path_of(r)): [e.unique_bytes, e.nonunique_bytes]
        for (w, r), e in prof.comm.items()
    }
    assert got == ref.edges


# -- batched transport differentials ----------------------------------------
#
# The same Hypothesis stream is replayed through (a) the scalar observer
# path, (b) the batched transport at several ring sizes, and (c) the naive
# reference model, asserting bit-identical results.  Profiles are compared
# via their canonical serialisation, which covers every aggregate the
# profiler produces (edges, per-function traffic, clocks, shadow footprint,
# re-use histograms); event mode additionally compares the raw event log.

BATCH_SIZES = (1, 3, 64, 4096)

_BATCH_CONFIGS = {
    "baseline": SigilConfig(),
    "reuse": SigilConfig(reuse_mode=True),
    "events": SigilConfig(event_mode=True),
    "reuse-events": SigilConfig(reuse_mode=True, event_mode=True),
    "line4": SigilConfig(line_size=4),
    "reuse-line8": SigilConfig(reuse_mode=True, line_size=8),
    "paged": SigilConfig(max_shadow_pages=1),
}


@st.composite
def rich_traces(draw):
    """Traces mixing accesses (including zero-byte), ops, and branches.

    Ops and branches advance the profiler's clock, so they exercise the
    transport's flush policy: ops and branches flush (respectively: are
    forwarded scalar) only for time-strict downstreams such as re-use
    mode, and are deferred past buffered accesses otherwise.
    """
    n_steps = draw(st.integers(min_value=1, max_value=60))
    steps = []
    depth = 0
    for _ in range(n_steps):
        kinds = ["read", "write", "enter", "op", "branch"]
        if depth > 0:
            kinds.append("exit")
        kind = draw(st.sampled_from(kinds))
        if kind == "enter":
            steps.append(("enter", draw(st.sampled_from(_FN_NAMES))))
            depth += 1
        elif kind == "exit":
            steps.append(("exit",))
            depth -= 1
        elif kind == "op":
            steps.append(("op", draw(st.integers(min_value=1, max_value=4))))
        elif kind == "branch":
            steps.append(("branch", draw(st.integers(min_value=0, max_value=7)),
                          draw(st.booleans())))
        else:
            addr = draw(st.integers(min_value=0, max_value=40))
            size = draw(st.integers(min_value=0, max_value=12))
            steps.append((kind, addr, size))
    steps.extend([("exit",)] * depth)
    return steps


def _drive(steps, observer) -> None:
    """Replay a step list into ``observer`` (a profiler or a transport)."""
    observer.on_run_begin()
    exits: List[str] = []
    for step in steps:
        if step[0] == "enter":
            observer.on_fn_enter(step[1])
            exits.append(step[1])
        elif step[0] == "exit":
            observer.on_fn_exit(exits.pop())
        elif step[0] == "op":
            observer.on_op(OpKind.INT, step[1])
        elif step[0] == "branch":
            observer.on_branch(step[1], step[2])
        elif step[0] == "read":
            observer.on_mem_read(step[1], step[2])
        else:
            observer.on_mem_write(step[1], step[2])
    observer.on_run_end()


def _events_snapshot(profile):
    """The event log as comparable plain data (None without event mode)."""
    if profile.events is None:
        return None
    segments = tuple(
        (s.seg_id, s.ctx_id, s.call_id, s.start_time, s.ops, s.thread)
        for s in profile.events.segments
    )
    edges = tuple(sorted(
        (e.src, e.dst, e.kind, e.bytes) for e in profile.events.edges()
    ))
    return segments, edges


def _run_config(steps, config: SigilConfig, batch_size: int):
    profiler = SigilProfiler(config)
    # scalar_cutoff=0 forces even tiny flushes through on_mem_batch -- the
    # point here is differential coverage of the transport's ordering and
    # strict flushes on the way into the profiler's scalar kernel.
    observer = (
        BatchingTransport(profiler, batch_size, scalar_cutoff=0)
        if batch_size
        else profiler
    )
    _drive(steps, observer)
    profile = profiler.profile()
    return dumps_profile(profile), _events_snapshot(profile)


@pytest.mark.parametrize("config_name", sorted(_BATCH_CONFIGS))
@given(steps=rich_traces())
@settings(max_examples=40, deadline=None)
def test_batched_profile_identical_to_scalar(config_name, steps):
    """Every batch size yields the byte-identical profile, in every mode."""
    config = _BATCH_CONFIGS[config_name]
    scalar = _run_config(steps, config, 0)
    for batch_size in BATCH_SIZES:
        assert _run_config(steps, config, batch_size) == scalar, (
            f"batch_size={batch_size} diverged from scalar for {config_name}"
        )


@pytest.mark.parametrize("config_name", sorted(_BATCH_CONFIGS))
@given(steps=page_boundary_traces())
@settings(max_examples=30, deadline=None)
def test_batched_page_straddling_identical_to_scalar(config_name, steps):
    """Batches whose accesses cross shadow-page boundaries stay identical.

    Page-straddling accesses (and, for ``paged``, FIFO eviction) are the
    paths a single-page address range never exercises.
    """
    config = _BATCH_CONFIGS[config_name]
    scalar = _run_config(steps, config, 0)
    for batch_size in (3, 64):
        assert _run_config(steps, config, batch_size) == scalar, (
            f"batch_size={batch_size} diverged from scalar for {config_name}"
        )


@given(steps=rich_traces())
@settings(max_examples=60, deadline=None)
def test_batched_edges_match_reference(steps):
    """The batched transport agrees with the naive reference model too."""
    ref = ReferenceSigil()
    exits: List[str] = []
    for step in steps:
        if step[0] == "enter":
            ref.enter(step[1])
            exits.append(step[1])
        elif step[0] == "exit":
            ref.exit()
        elif step[0] == "read":
            ref.read(step[1], step[2])
        elif step[0] == "write":
            ref.write(step[1], step[2])
    for batch_size in (3, 64):
        profiler = SigilProfiler(SigilConfig())
        _drive(steps, BatchingTransport(profiler, batch_size, scalar_cutoff=0))
        prof = profiler.profile()

        def path_of(ctx_id):
            return None if ctx_id < 0 else prof.tree.node(ctx_id).path

        got = {
            (path_of(w), path_of(r)): [e.unique_bytes, e.nonunique_bytes]
            for (w, r), e in prof.comm.items()
        }
        assert got == ref.edges


@given(steps=rich_traces())
@settings(max_examples=40, deadline=None)
def test_batched_line_granularity_matches_reference(steps):
    """Line-granularity classification matches the unit-scaled reference."""
    ref = ReferenceSigil(line_size=4)
    exits: List[str] = []
    for step in steps:
        if step[0] == "enter":
            ref.enter(step[1])
            exits.append(step[1])
        elif step[0] == "exit":
            ref.exit()
        elif step[0] == "read":
            ref.read(step[1], step[2])
        elif step[0] == "write":
            ref.write(step[1], step[2])
    profiler = SigilProfiler(SigilConfig(line_size=4))
    _drive(steps, BatchingTransport(profiler, 64, scalar_cutoff=0))
    prof = profiler.profile()

    def path_of(ctx_id):
        return None if ctx_id < 0 else prof.tree.node(ctx_id).path

    got = {
        (path_of(w), path_of(r)): [e.unique_bytes, e.nonunique_bytes]
        for (w, r), e in prof.comm.items()
    }
    assert got == ref.edges


@given(steps=threaded_traces())
@settings(max_examples=60, deadline=None)
def test_batched_threaded_profile_identical_to_scalar(steps):
    """Thread switches flush; cross-thread profiles stay byte-identical."""

    def run(batch_size):
        profiler = SigilProfiler(SigilConfig())
        observer = (
            BatchingTransport(profiler, batch_size, scalar_cutoff=0)
            if batch_size
            else profiler
        )
        observer.on_run_begin()
        exits = {0: [], 1: [], 2: []}
        tid = 0
        for step in steps:
            if step[0] == "switch":
                tid = step[1]
                observer.on_thread_switch(tid)
            elif step[0] == "enter":
                observer.on_fn_enter(step[1])
                exits[tid].append(step[1])
            elif step[0] == "exit":
                observer.on_fn_exit(exits[tid].pop())
            elif step[0] == "read":
                observer.on_mem_read(step[1], step[2])
            else:
                observer.on_mem_write(step[1], step[2])
        observer.on_run_end()
        return dumps_profile(profiler.profile())

    scalar = run(0)
    for batch_size in BATCH_SIZES:
        assert run(batch_size) == scalar
