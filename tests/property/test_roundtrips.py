"""Property tests: persistence round-trips and scheduler bounds on random
profiler runs."""

from __future__ import annotations

import io
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_critical_path, schedule_events
from repro.core import SigilConfig, SigilProfiler
from repro.io import (
    dumps_events,
    dumps_events_bin,
    dumps_profile,
    load_event_arrays,
    loads_profile,
)


def via_v2(events, **dump_kwargs):
    """``events`` written as v2 and read back by the one loader."""
    return load_event_arrays(io.BytesIO(dumps_events_bin(events, **dump_kwargs)))


_FN_NAMES = ("alpha", "beta", "gamma", "fn with spaces", "std::weird<T>")


@st.composite
def trace_steps(draw):
    n_steps = draw(st.integers(min_value=1, max_value=50))
    steps = []
    depth = 0
    for _ in range(n_steps):
        kinds = ["read", "write", "enter", "op", "syscall"]
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
            steps.append(("op", draw(st.integers(min_value=1, max_value=50))))
        elif kind == "syscall":
            steps.append((
                "syscall",
                draw(st.sampled_from(["read", "write", "mmap"])),
                draw(st.integers(min_value=0, max_value=64)),
                draw(st.integers(min_value=0, max_value=64)),
            ))
        else:
            steps.append((
                kind,
                draw(st.integers(min_value=0, max_value=6000)),  # spans pages
                draw(st.integers(min_value=1, max_value=16)),
            ))
    steps.extend([("exit",)] * depth)
    return steps


def run_profiler(steps, **config) -> SigilProfiler:
    from repro.trace.events import OpKind

    p = SigilProfiler(SigilConfig(**config))
    p.on_run_begin()
    stack: List[str] = []
    for step in steps:
        if step[0] == "enter":
            p.on_fn_enter(step[1])
            stack.append(step[1])
        elif step[0] == "exit":
            p.on_fn_exit(stack.pop())
        elif step[0] == "op":
            p.on_op(OpKind.INT, step[1])
        elif step[0] == "syscall":
            p.on_syscall_enter(step[1], step[2])
            p.on_syscall_exit(step[1], step[3])
        elif step[0] == "read":
            p.on_mem_read(step[1], step[2])
        else:
            p.on_mem_write(step[1], step[2])
    p.on_run_end()
    return p


@given(trace_steps())
@settings(max_examples=120, deadline=None)
def test_profile_roundtrip_on_random_traces(steps):
    profile = run_profiler(steps, reuse_mode=True).profile()
    text = dumps_profile(profile)
    assert dumps_profile(loads_profile(text)) == text


@given(trace_steps())
@settings(max_examples=80, deadline=None)
def test_eventfile_roundtrip_on_random_traces(steps):
    """The write-only text of a log read back from v2 is byte-identical
    to the text of the log itself."""
    profile = run_profiler(steps, event_mode=True).profile()
    text = dumps_events(profile.events)
    loaded = via_v2(profile.events)
    assert dumps_events(loaded) == text
    live = analyze_critical_path(profile.events)
    offline = analyze_critical_path(loaded)
    assert offline.critical_length == live.critical_length


@given(trace_steps())
@settings(max_examples=80, deadline=None)
def test_text_roundtrip_preserves_eventlog_equality(steps):
    """The text holds every row of the log: one line per segment and per
    edge, in table order, so equal text means equal logs."""
    events = run_profiler(steps, event_mode=True).profile().events
    lines = dumps_events(events).splitlines()
    assert lines[0] == "# sigil-events 1"
    n_segs, n_oc = len(events.segs), len(events.ordercall)
    assert len(lines) == 1 + n_segs + n_oc + len(events.data)
    assert [int(line.split()[1]) for line in lines[1 : 1 + n_segs]] == list(
        range(n_segs)
    )
    assert [line.split()[1:] for line in lines[1 + n_segs + n_oc :]] == [
        ["data", str(src), str(dst), str(count)]
        for src, dst, count in events.data.tolist()
    ]


@given(
    trace_steps(),
    st.sampled_from([None, "gzip"]),
    st.sampled_from([1, 7, 1 << 18]),
)
@settings(max_examples=60, deadline=None)
def test_binary_roundtrip_preserves_eventlog_equality(
    steps, compression, chunk_rows
):
    events = run_profiler(steps, event_mode=True).profile().events
    loaded = via_v2(events, compression=compression, chunk_rows=chunk_rows)
    assert loaded == events
    # Its text equals the direct text dump, byte for byte.
    assert dumps_events(loaded) == dumps_events(events)


@given(trace_steps())
@settings(max_examples=60, deadline=None)
def test_critical_path_identical_on_both_representations(steps):
    """The in-memory log and its v2 reload both reproduce the naive
    model exactly, including tie-breaking on the reported chain."""
    from tests.property.oracles import (
        assert_matches_oracle,
        naive_critical_path,
    )

    events = run_profiler(steps, event_mode=True).profile().events
    expected = naive_critical_path(events)
    assert_matches_oracle(analyze_critical_path(events), expected)
    assert_matches_oracle(
        analyze_critical_path(via_v2(events)), expected
    )


@given(trace_steps(), st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_schedule_bounds_on_random_traces(steps, n_cores):
    """Classic scheduling bounds: critical path <= makespan and
    makespan <= serial length; speedup <= min(cores, parallelism limit)."""
    events = run_profiler(steps, event_mode=True).profile().events
    result = schedule_events(events, n_cores)
    cp = analyze_critical_path(events)
    assert result.makespan >= cp.critical_length
    assert result.makespan <= cp.serial_length
    assert result.speedup <= n_cores + 1e-9
    assert result.speedup <= cp.max_parallelism + 1e-9


@given(trace_steps())
@settings(max_examples=60, deadline=None)
def test_aggregates_invariant_under_event_mode(steps):
    """Event mode adds output, never changes the aggregate classification."""
    base = run_profiler(steps).profile()
    with_events = run_profiler(steps, event_mode=True).profile()
    base_edges = dict(base.comm.items())
    ev_edges = dict(with_events.comm.items())
    assert {
        k: (e.unique_bytes, e.nonunique_bytes) for k, e in base_edges.items()
    } == {
        k: (e.unique_bytes, e.nonunique_bytes) for k, e in ev_edges.items()
    }
