"""Property tests: the critical-path DP against the naive longest-path
model in :mod:`tests.property.oracles`."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_critical_path
from repro.analysis.streaming import ChunkSource
from repro.core.segments import EventArrays
from repro.io import dumps_events_bin

from tests.property.oracles import assert_matches_oracle, naive_critical_path
from tests.property.test_invariants import event_logs
from tests.property.test_roundtrips import run_profiler, trace_steps


@given(trace_steps(), st.sampled_from([1, 7, 64, 1 << 18]))
@settings(max_examples=60, deadline=None)
def test_profiled_logs_match_oracle(steps, chunk_rows):
    """Every form of a profiled log, at every chunking, gives the naive
    model's lengths, inclusive costs and tie-broken path."""
    events = run_profiler(steps, event_mode=True).profile().events
    expected = naive_critical_path(events)
    for form in (
        events,
        EventArrays.from_eventlog(events),
        ChunkSource(events, chunk_rows=chunk_rows),
        dumps_events_bin(events, chunk_rows=chunk_rows),
    ):
        assert_matches_oracle(analyze_critical_path(form), expected)


@given(event_logs(), st.sampled_from([1, 7, 64, 1 << 18]))
@settings(max_examples=100, deadline=None)
def test_unsorted_edge_tables_match_oracle(log, chunk_rows):
    """Random logs whose edge tables are not sorted by destination (and
    carry duplicate and parallel edges of every kind)."""
    expected = naive_critical_path(log)
    for form in (
        log,
        ChunkSource(log, chunk_rows=chunk_rows),
        dumps_events_bin(log, chunk_rows=chunk_rows),
    ):
        assert_matches_oracle(analyze_critical_path(form), expected)


def test_oracle_tie_breaks_are_the_documented_ones():
    """Pins the oracle itself on a hand-built log: equal-cost predecessors
    pick the last in (order/call, data) order, and equal-cost ends pick the
    first segment."""
    from repro.core.segments import EventLog

    log = EventLog()
    for ops in (3, 3, 0, 2, 5):
        log.new_segment(0, 0, 0).ops = ops
    log.add_data_bytes(1, 2, 8)
    log.add_order_edge(0, 2)
    log.add_order_edge(2, 3)
    expected = naive_critical_path(log)
    # seg 2's predecessors in edge order are [0 (order), 1 (data)]; both
    # cost 3, so the data predecessor wins.  Segs 3 and 4 both end at 5.
    assert expected.inclusive == [3, 3, 3, 5, 5]
    assert expected.path == [1, 2, 3]
    assert_matches_oracle(analyze_critical_path(log), expected)
