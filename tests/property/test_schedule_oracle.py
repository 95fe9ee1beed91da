"""Property tests: the section IV-C list scheduler against the naive HLFET
model in :mod:`tests.property.oracles`."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    analyze_critical_path,
    schedule_events,
    speedup_curve,
)
from repro.analysis.streaming import ChunkSource
from repro.io import dumps_events_bin

from tests.eventlog import event_arrays
from tests.property.oracles import naive_schedule
from tests.property.test_roundtrips import run_profiler, trace_steps, via_v2


def assert_matches_schedule(result, expected) -> None:
    assert result.placement == expected.placement
    assert result.makespan == expected.makespan
    assert result.cross_core_bytes == expected.cross_core_bytes


@given(trace_steps(), st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_profiled_logs_match_oracle(steps, n_cores):
    """Every form of a profiled log schedules exactly as the naive HLFET:
    same placement, makespan and cross-core bytes."""
    events = run_profiler(steps, event_mode=True).profile().events
    expected = naive_schedule(events, n_cores)
    for form in (
        events,
        via_v2(events),
        ChunkSource(events, chunk_rows=3),
        dumps_events_bin(events, chunk_rows=3),
    ):
        assert_matches_schedule(schedule_events(form, n_cores), expected)
    # Unsorted, with a repeat: one dispatch order serves every count.
    cores = [2 * n_cores, 1, n_cores, n_cores]
    curve = speedup_curve(events, cores)
    assert curve == [schedule_events(events, k) for k in cores]
    for result, k in zip(curve, cores):
        assert result.n_cores == k
        assert_matches_schedule(result, naive_schedule(events, k))


@given(trace_steps())
@settings(max_examples=60, deadline=None)
def test_curve_runs_from_serial_length_to_critical_path(steps):
    """One core runs the serial length with no cross-core bytes; with a
    core per segment, every segment starts once its predecessors finish,
    so the makespan is the critical path."""
    events = run_profiler(steps, event_mode=True).profile().events
    one, unbounded = speedup_curve(events, [1, max(len(events.segs), 1)])
    assert one.makespan == one.serial_length
    assert one.cross_core_bytes == 0
    assert unbounded.makespan == analyze_critical_path(events).critical_length


@st.composite
def backward_edge_logs(draw):
    """DAGs whose data edges may point from a younger segment to an older
    one, as threaded logs' do: every edge follows a drawn topological
    order, and order/call edges also point forward in id."""
    n = draw(st.integers(min_value=1, max_value=25))
    rank = draw(st.permutations(range(n)))
    segs = [
        (i % 3, i, i, draw(st.integers(min_value=0, max_value=40)))
        for i in range(n)
    ]
    edges, data = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        if n < 2:
            break
        a = draw(st.integers(min_value=0, max_value=n - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n - 1))
        src, dst = (a, b) if rank[a] < rank[b] else (b, a)
        if draw(st.booleans()):
            data.append((src, dst, draw(st.integers(1, 64))))
        elif src < dst:
            edges.append(("order", src, dst))
    return event_arrays(segs, edges, data)


@given(backward_edge_logs(), st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_backward_data_edges_match_oracle(log, n_cores):
    expected = naive_schedule(log, n_cores)
    for form in (log, dumps_events_bin(log, chunk_rows=3)):
        assert_matches_schedule(schedule_events(form, n_cores), expected)


def test_threaded_fluidanimate_matches_oracle():
    """The threaded log's ghost-zone data edges (88 -> 1, 92 -> 1, ...)
    point backward; ranking by reverse id order mis-ranked most of its
    segments and changed the placement."""
    from repro.core import SigilConfig, SigilProfiler
    from repro.workloads.fluidanimate_parallel import ParallelFluidanimate

    profiler = SigilProfiler(SigilConfig(event_mode=True))
    ParallelFluidanimate("simsmall").run(profiler)
    events = profiler.profile().events
    data = events.data
    assert bool((data["src"] > data["dst"]).any())
    cores = [1, 2, 3, 4, 8]
    for result, k in zip(speedup_curve(events, cores), cores):
        assert_matches_schedule(result, naive_schedule(events, k))


def test_oracle_pins_the_documented_tie_breaks():
    """Equal levels dispatch the lower segment id first; equal free times
    pick the lower core index."""
    log = event_arrays(
        [(0, 0, 0, 0)] + [(i, i, i, 5) for i in (1, 2, 3)],
        [("call", 0, i) for i in (1, 2, 3)],
        [(1, 3, 16)],
    )
    expected = naive_schedule(log, 2)
    assert expected.placement == {
        0: (0, 0), 1: (0, 0), 2: (1, 0), 3: (0, 5),
    }
    assert expected.makespan == 10
    assert expected.cross_core_bytes == 0
    assert_matches_schedule(schedule_events(log, 2), expected)
