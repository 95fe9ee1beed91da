"""Differential property test: the run-wise shadow-memory profiler versus
the byte-at-a-time pure-Python reference model of section II's methodology
(:class:`repro.core.reference.ReferenceSigil`).

The reference model is deliberately naive (one dict entry per byte, no
NumPy, no paging) so that any disagreement points at the optimised
implementation.  Hypothesis drives random interleavings of function
enter/exit, reads, and writes over a small address range.  Besides the
communication edges, the model covers re-use mode (per-call lifetime
windows, per-byte re-use counts) and event mode (each byte's producer
segment, hence the data edges between segments).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SigilConfig, SigilProfiler
from repro.core.reference import ReferenceSigil
from repro.core.reuse import ReuseStats
from repro.io.profilefile import dumps_profile
from repro.trace.batch import BatchingTransport
from repro.trace.events import OpKind


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
    _drive(steps, profiler)
    _drive(steps, ref)
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


def _drive_threaded(steps, observer) -> None:
    """Replay a threaded step list into ``observer``."""
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


def run_both_threaded(steps):
    profiler = SigilProfiler(SigilConfig())
    ref = ReferenceSigil()
    _drive_threaded(steps, profiler)
    _drive_threaded(steps, ref)
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
    events = profile.events
    return (
        events.segs.tolist(),
        sorted(events.ordercall.tolist()),
        sorted(events.data.tolist()),
    )


def _run_config(steps, config: SigilConfig, batch_size: int):
    profiler = SigilProfiler(config)
    # scalar_cutoff=0 forces even tiny flushes through on_mem_batch_runs -- the
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
    _drive(steps, ref)
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
    _drive(steps, ref)
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


# -- re-use and data-edge differentials ---------------------------------------
#
# Re-use mode and event mode against the reference model: per-context
# windows, lifetime sums, re-reads and lifetime histograms; the per-byte
# re-use-count distribution; and the data edges between segments.  The
# histogram bin is shrunk so that the short lifetimes of a small trace land
# in several bins.

REUSE_BIN = 3


def run_reuse_both(steps, line_size: int = 1):
    profiler = SigilProfiler(
        SigilConfig(reuse_mode=True, event_mode=True, line_size=line_size)
    )
    profiler.reuse = ReuseStats(histogram_bin_size=REUSE_BIN)
    _drive(steps, profiler)
    ref = ReferenceSigil(line_size=line_size, bin_size=REUSE_BIN)
    _drive(steps, ref)
    return profiler.profile(), ref


def assert_reuse_matches(prof, ref: ReferenceSigil) -> None:
    def path_of(ctx_id):
        return None if ctx_id < 0 else prof.tree.node(ctx_id).path

    got_edges = {
        (path_of(w), path_of(r)): [e.unique_bytes, e.nonunique_bytes]
        for (w, r), e in prof.comm.items()
    }
    assert got_edges == ref.edges
    got_fn = {
        path_of(ctx): (
            s.reused_windows, s.lifetime_sum, s.reuse_accesses, s.histogram
        )
        for ctx, s in prof.reuse.per_fn.items()
    }
    assert got_fn == ref.per_fn()
    assert prof.reuse.byte_breakdown() == ref.byte_breakdown()
    assert prof.events.n_segments == ref.n_segments
    got_data = {
        (src, dst): nbytes for src, dst, nbytes in prof.events.data.tolist()
    }
    assert got_data == ref.data_edges


@st.composite
def wide_straddling_traces(draw, line_size: int):
    """Traces of wide accesses around the first shadow-page boundary.

    The boundary sits at unit 4096, i.e. byte ``4096 * line_size``; ops of
    up to a few instructions spread the re-use lifetimes over several bins.
    """
    boundary = 4096 * line_size
    n_steps = draw(st.integers(min_value=1, max_value=50))
    steps = []
    depth = 0
    for _ in range(n_steps):
        kinds = ["read", "read", "write", "enter", "op", "branch"]
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
            steps.append(("op", draw(st.integers(min_value=1, max_value=5))))
        elif kind == "branch":
            steps.append(("branch", 0, draw(st.booleans())))
        else:
            addr = draw(st.integers(
                min_value=boundary - 48 * line_size,
                max_value=boundary + 16 * line_size,
            ))
            size = draw(st.integers(min_value=0, max_value=72 * line_size))
            steps.append((kind, addr, size))
    steps.extend([("exit",)] * depth)
    return steps


@pytest.mark.parametrize("line_size", [1, 8])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_reuse_and_data_edges_match_reference(line_size, data):
    """Re-use aggregates and data edges equal the per-unit model."""
    steps = data.draw(rich_traces())
    prof, ref = run_reuse_both(steps, line_size)
    assert_reuse_matches(prof, ref)


@pytest.mark.parametrize("line_size", [1, 8])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_wide_straddling_reuse_matches_reference(line_size, data):
    """Wide accesses that span the page boundary and many runs."""
    steps = data.draw(wide_straddling_traces(line_size))
    prof, ref = run_reuse_both(steps, line_size)
    assert_reuse_matches(prof, ref)


def test_fully_fragmented_page_matches_reference():
    """Every unit of a page its own run: a 4096-unit read, then a write.

    Each unit is written by its own segment, so the read finds 4096 runs;
    single-unit re-reads then give every unit its own window, so the write
    over the page closes 4096 distinct windows.
    """
    steps = []
    for unit in range(4096):
        steps += [("enter", _FN_NAMES[unit % 3]), ("write", unit, 1), ("exit",)]
    steps += [("enter", "f"), ("read", 0, 4096)]
    for unit in range(4096):
        steps += [("op", unit % 5 + 1), ("read", unit, 1)]
    steps += [("exit",), ("enter", "g"), ("write", 0, 4096), ("exit",)]

    profiler = SigilProfiler(SigilConfig(reuse_mode=True, event_mode=True))
    profiler.reuse = ReuseStats(histogram_bin_size=REUSE_BIN)
    _drive(steps, profiler)
    ref = ReferenceSigil(bin_size=REUSE_BIN)
    _drive(steps, ref)
    assert_reuse_matches(profiler.profile(), ref)
    # 8192 single-unit accesses make one run each; the two page-wide
    # accesses make 4096 runs each.
    assert profiler.shadow_chunks == 8192 + 2
    assert profiler.shadow_runs == 8192 + 2 * 4096



# -- the memory limit ---------------------------------------------------------
#
# Under ``max_shadow_pages`` the profiler evicts the least recently touched
# shadow page, and the evicted units' values die: their re-use windows close
# and their re-use counts retire, and a later access finds them unwritten.
# The reference model keeps its units in pages under the same limit.


@st.composite
def three_page_traces(draw):
    """Rich traces whose accesses straddle the boundaries of pages 0-2."""
    n_steps = draw(st.integers(min_value=1, max_value=50))
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
            steps.append(("branch", 0, draw(st.booleans())))
        else:
            boundary = draw(st.sampled_from([4096, 8192]))
            addr = draw(st.integers(min_value=boundary - 16, max_value=boundary + 16))
            size = draw(st.integers(min_value=0, max_value=24))
            steps.append((kind, addr, size))
    steps.extend([("exit",)] * depth)
    return steps


_LIMITED_TRACES = {
    "page-straddling": page_boundary_traces(),
    "rich": rich_traces(),
    "three-page": three_page_traces(),
}


@pytest.mark.parametrize("strategy", sorted(_LIMITED_TRACES))
@pytest.mark.parametrize("max_pages", [1, 2])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_memory_limit_matches_reference(max_pages, strategy, data):
    """Evictions change edges, windows, histograms, retired counts and
    data edges exactly as the paged reference model says."""
    steps = data.draw(_LIMITED_TRACES[strategy])
    profiler = SigilProfiler(SigilConfig(
        reuse_mode=True, event_mode=True, max_shadow_pages=max_pages
    ))
    profiler.reuse = ReuseStats(histogram_bin_size=REUSE_BIN)
    _drive(steps, profiler)
    ref = ReferenceSigil(bin_size=REUSE_BIN, max_pages=max_pages)
    _drive(steps, ref)
    assert_reuse_matches(profiler.profile(), ref)
