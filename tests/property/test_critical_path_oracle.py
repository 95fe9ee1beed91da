"""Property tests: the critical-path DP against the naive longest-path
model in :mod:`tests.property.oracles`."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_critical_path
from repro.analysis.streaming import ChunkSource
from repro.io import dump_events_bin, dumps_events_bin
from repro.io.eventbin import DEFAULT_CHUNK_ROWS

from tests.eventlog import event_arrays
from tests.property.oracles import assert_matches_oracle, naive_critical_path
from tests.property.test_invariants import event_logs
from tests.property.test_roundtrips import run_profiler, trace_steps


def assert_every_form_matches(events, chunk_rows: int) -> None:
    """The log in memory, as v2 bytes and as a v2 file, each cut into
    chunks of 1 row, of ``chunk_rows`` rows and of the default size, gives
    the naive model's lengths, inclusive costs, path and path rows."""
    expected = naive_critical_path(events)
    with tempfile.TemporaryDirectory() as tmp:
        for rows in (1, chunk_rows, DEFAULT_CHUNK_ROWS):
            path = Path(tmp) / f"log-{rows}.events"
            dump_events_bin(events, path, chunk_rows=rows)
            for form in (
                events if rows == DEFAULT_CHUNK_ROWS
                else ChunkSource(events, chunk_rows=rows),
                dumps_events_bin(events, chunk_rows=rows),
                path,
            ):
                assert_matches_oracle(analyze_critical_path(form), expected)


@given(trace_steps(), st.sampled_from([7, 64]))
@settings(max_examples=60, deadline=None)
def test_profiled_logs_match_oracle(steps, chunk_rows):
    """Every form of a profiled log, at every chunking, gives the naive
    model's lengths, inclusive costs and tie-broken path."""
    events = run_profiler(steps, event_mode=True).profile().events
    assert_every_form_matches(events, chunk_rows)


@given(event_logs(), st.sampled_from([7, 64]))
@settings(max_examples=100, deadline=None)
def test_unsorted_edge_tables_match_oracle(log, chunk_rows):
    """Random logs whose edge tables are not sorted by destination (and
    carry duplicate and parallel edges of every kind)."""
    assert_every_form_matches(log, chunk_rows)


def test_oracle_tie_breaks_are_the_documented_ones():
    """Pins the oracle itself on a hand-built log: equal-cost predecessors
    pick the last in (order/call, data) order, and equal-cost ends pick the
    first segment."""
    log = event_arrays(
        [(0, 0, 0, ops) for ops in (3, 3, 0, 2, 5)],
        [("order", 0, 2), ("order", 2, 3)],
        [(1, 2, 8)],
    )
    expected = naive_critical_path(log)
    # seg 2's predecessors in edge order are [0 (order), 1 (data)]; both
    # cost 3, so the data predecessor wins.  Segs 3 and 4 both end at 5.
    assert expected.inclusive == [3, 3, 3, 5, 5]
    assert expected.path == [1, 2, 3]
    assert_matches_oracle(analyze_critical_path(log), expected)
