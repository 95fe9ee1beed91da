"""Time-resolved curve tests (:mod:`repro.analysis.windowed`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.streaming import ChunkSource
from repro.analysis.windowed import (
    DEFAULT_WINDOW_OPS,
    WINDOWED_SCHEMA,
    WindowedCurves,
    windowed_curves,
)
from repro.core.segments import EventArrays
from repro.io import dumps_events_bin

from tests.eventlog import event_arrays


def chain_log() -> EventArrays:
    """Four back-to-back segments of 10 ops, two data edges.

    With ``window=10`` each segment owns one window.  Edge A: produced at
    op 10 (end of seg 0), consumed at op 20 (start of seg 2): lifetime 10,
    live through windows 1..2.  Edge B: produced at op 20, consumed at
    op 30: lifetime 10, live through windows 2..3.
    """
    return event_arrays(
        [(i, i, 10 * i, 10) for i in range(4)],
        [("order", i - 1, i) for i in range(1, 4)],
        [(0, 2, 64), (1, 3, 16)],
    )


class TestHandComputed:
    def test_chain_curves(self):
        c = windowed_curves(chain_log(), window=10)
        assert c.n_windows == 4
        assert c.ops.tolist() == [10, 10, 10, 10]
        assert c.comm_bytes.tolist() == [0, 0, 64, 16]
        # WS: edge A live in windows 1-2 (64B), edge B in windows 2-3 (16B).
        assert c.ws_bytes.tolist() == [0, 64, 80, 16]
        assert c.lifetime_sum.tolist() == [0, 0, 10, 10]
        assert c.lifetime_edges.tolist() == [0, 0, 1, 1]
        assert c.mean_lifetime.tolist() == [0, 0, 10, 10]
        # Lifetime 10 falls in bin floor(log2(10)) + 1 = 4 ([8, 16)).
        assert c.lifetime_hist.tolist() == [0, 0, 0, 0, 2]
        assert c.peak_ws_bytes == 80
        assert c.total_comm_bytes == 80
        assert c.total_segments == 4
        assert c.total_edges == 2

    def test_zero_lifetime_edge_lands_in_bin_zero(self):
        log = event_arrays([(0, 0, 0, 5), (1, 1, 5, 5)], data=[(0, 1, 8)])
        c = windowed_curves(log, window=100)
        assert c.lifetime_hist.tolist() == [1]
        assert c.mean_lifetime.tolist() == [0.0]

    def test_backward_edge_clamps_lifetime(self):
        """A consumer older than its producer (threaded logs) contributes a
        zero lifetime and a working-set interval anchored at the earlier
        endpoint."""
        log = event_arrays(
            [(i, i, 10 * i, 10) for i in range(3)],
            data=[(2, 0, 32)],  # producer is the youngest segment
        )
        c = windowed_curves(log, window=10)
        assert c.lifetime_sum.tolist() == [0, 0, 0]
        assert c.comm_bytes.tolist() == [32, 0, 0]
        assert c.lifetime_hist.tolist() == [1]


class TestEdgeCases:
    def test_empty_log(self):
        c = windowed_curves(event_arrays())
        assert c.n_windows == 0
        assert c.peak_ws_bytes == 0
        assert c.total_comm_bytes == 0
        assert c.window == DEFAULT_WINDOW_OPS

    def test_one_segment_log(self):
        c = windowed_curves(event_arrays([(0, 0, 0, 5)]), window=10)
        assert c.n_windows == 1
        assert c.ops.tolist() == [5]
        assert c.ws_bytes.tolist() == [0]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window"):
            windowed_curves(event_arrays(), window=0)


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 1 << 18])
    def test_binary_chunking_does_not_change_curves(self, chunk_rows):
        log = chain_log()
        base = windowed_curves(log, window=10)
        blob = dumps_events_bin(log, chunk_rows=chunk_rows)
        streamed = windowed_curves(blob, window=10)
        assert streamed.to_dict() == base.to_dict()

    def test_synthetic_chunking_does_not_change_curves(self):
        log = chain_log()
        base = windowed_curves(log, window=10)
        resliced = windowed_curves(
            ChunkSource(log, chunk_rows=1), window=10
        )
        assert resliced.to_dict() == base.to_dict()

    def test_profiled_run_curves_from_file_match_in_memory(self, toy_profiles):
        sigil, _ = toy_profiles
        base = windowed_curves(sigil.events, window=8)
        blob = dumps_events_bin(sigil.events, chunk_rows=2)
        assert windowed_curves(blob, window=8).to_dict() == base.to_dict()


class TestSerialisation:
    def test_round_trip(self):
        c = windowed_curves(chain_log(), window=10)
        back = WindowedCurves.from_dict(c.to_dict())
        assert back.to_dict() == c.to_dict()
        assert back.window == 10

    def test_schema_tagged(self):
        assert windowed_curves(event_arrays()).to_dict()["schema"] == (
            WINDOWED_SCHEMA
        )

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            WindowedCurves.from_dict({"schema": "bogus/9", "window": 1})

    def test_json_round_trip_types(self):
        import json

        c = windowed_curves(chain_log(), window=10)
        back = WindowedCurves.from_dict(json.loads(json.dumps(c.to_dict())))
        assert np.array_equal(back.ws_bytes, c.ws_bytes)
        assert back.ws_bytes.dtype == np.int64


class TestAggregateConsistency:
    def test_totals_match_whole_run_aggregates(self, toy_profiles):
        sigil, _ = toy_profiles
        events = sigil.events
        c = windowed_curves(events, window=4)
        assert int(c.ops.sum()) == events.total_ops()
        edge_bytes = int(events.data["bytes"].sum())
        assert c.total_comm_bytes == edge_bytes
        assert int(c.lifetime_hist.sum()) == c.total_edges
