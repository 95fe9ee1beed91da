"""Property tests: streamed analyses are invisible to callers.

For any event log and any chunking of it, the streamed critical path is
*identical* to the naive longest-path model (:mod:`tests.property.oracles`)
and the windowed curves to what one in-memory pass computes.
"""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_critical_path
from repro.analysis.streaming import ChunkSource
from repro.analysis.windowed import windowed_curves
from repro.io import dumps_events_bin

from tests.property.oracles import assert_matches_oracle, naive_critical_path
from tests.property.test_roundtrips import run_profiler, trace_steps


@given(trace_steps(), st.sampled_from([1, 7, 64, 1 << 18]))
@settings(max_examples=60, deadline=None)
def test_streamed_critical_path_identical(steps, chunk_rows):
    """Any chunking of the binary log, read from a stream, reproduces the
    naive model exactly: lengths, per-segment inclusive costs, and the
    tie-broken reported chain."""
    events = run_profiler(steps, event_mode=True).profile().events
    expected = naive_critical_path(events)
    blob = dumps_events_bin(events, chunk_rows=chunk_rows)
    assert_matches_oracle(analyze_critical_path(io.BytesIO(blob)), expected)
    assert_matches_oracle(analyze_critical_path(events), expected)


@given(trace_steps(), st.sampled_from([1, 7, 64]), st.sampled_from([1, 16, 4096]))
@settings(max_examples=60, deadline=None)
def test_streamed_windowed_curves_identical(steps, chunk_rows, window):
    """WS(t) and friends are invariant under both on-disk chunking and
    synthetic in-memory chunking."""
    events = run_profiler(steps, event_mode=True).profile().events
    base = windowed_curves(events, window=window)
    via_file = windowed_curves(
        dumps_events_bin(events, chunk_rows=chunk_rows), window=window
    )
    via_slices = windowed_curves(
        ChunkSource(events, chunk_rows=chunk_rows), window=window
    )
    assert via_file.to_dict() == base.to_dict()
    assert via_slices.to_dict() == base.to_dict()
