"""Chunk-at-a-time event consumption tests (:mod:`repro.analysis.streaming`)."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.analysis import analyze_critical_path
from repro.analysis.streaming import (
    ChunkSource,
    EdgeCursor,
    GrowingColumn,
    SegmentColumns,
    UnsortedEdges,
    as_chunk_source,
    stream_resolved,
)
from repro.core.segments import (
    DATA_EDGE_DTYPE,
    SEG_DTYPE,
    EventArrays,
    EventLog,
)
from repro.io import dumps_events_bin

from tests.property.oracles import assert_matches_oracle, naive_critical_path


def make_log(n: int = 12) -> EventArrays:
    """A serial chain with a few data edges at varied distances."""
    log = EventLog()
    t = 0
    for i in range(n):
        seg = log.new_segment(i % 3, i, t)
        seg.ops = 2 + i % 5
        t += seg.ops
        if i:
            log.add_order_edge(i - 1, i)
    for src, dst, nbytes in ((1, 2, 8), (0, 3, 16), (2, n - 1, 64)):
        log.add_data_bytes(src, dst, nbytes)
    return log.to_arrays()


def seg_rows(*rows) -> np.ndarray:
    return np.array(list(rows), dtype=SEG_DTYPE)


def data_rows(*rows) -> np.ndarray:
    return np.array(list(rows), dtype=DATA_EDGE_DTYPE)


class _FakeSource:
    """Hand-ordered chunks, for exercising the edge holding buffer."""

    def __init__(self, script):
        self._script = script

    def chunks(self, tables=None):
        for table, rows in self._script:
            if tables is None or table in tables:
                yield table, rows


class TestChunkSource:
    @pytest.mark.parametrize("form", [
        "arrays", "v2_bytes", "v2_path", "fh",
    ])
    def test_all_forms_materialise_identically(self, form, tmp_path):
        log = expected = make_log()
        if form == "arrays":
            source = ChunkSource(expected)
        elif form == "v2_bytes":
            source = ChunkSource(dumps_events_bin(log, chunk_rows=3))
        elif form == "v2_path":
            path = tmp_path / "v2.bin"
            path.write_bytes(dumps_events_bin(log))
            source = ChunkSource(path)
        else:
            source = ChunkSource(io.BytesIO(dumps_events_bin(log)))
        blocks = {"segs": [], "oced": [], "data": []}
        for table, rows in source.chunks():
            blocks[table].append(rows)
        assert EventArrays(
            segs=np.concatenate(blocks["segs"]),
            ordercall=np.concatenate(blocks["oced"]),
            data=np.concatenate(blocks["data"]),
        ) == expected

    def test_chunks_is_reiterable(self):
        source = ChunkSource(make_log(), chunk_rows=4)
        first = [(t, len(r)) for t, r in source.chunks()]
        second = [(t, len(r)) for t, r in source.chunks()]
        assert first == second and first

    def test_chunk_rows_bounds_synthetic_chunks(self):
        source = ChunkSource(make_log(20), chunk_rows=3)
        assert all(len(rows) <= 3 for _, rows in source.chunks())
        assert sum(
            len(r) for t, r in source.chunks() if t == "segs"
        ) == 20

    def test_tables_filter(self):
        source = ChunkSource(make_log())
        assert {t for t, _ in source.chunks(("segs", "data"))} == {
            "segs", "data"
        }

    def test_as_chunk_source_idempotent(self):
        source = ChunkSource(make_log())
        assert as_chunk_source(source) is source
        resized = as_chunk_source(source, chunk_rows=2)
        assert resized is not source and resized.chunk_rows == 2

    def test_rejects_negative_chunk_rows(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            ChunkSource(make_log(), chunk_rows=-1)


class TestGrowingState:
    def test_growing_column_appends_across_capacity(self):
        col = GrowingColumn(capacity=2)
        for lo in range(0, 100, 7):
            col.append(np.arange(lo, min(lo + 7, 100)))
        assert np.array_equal(col.view(), np.arange(100))

    def test_segment_columns_end_pseudo_field(self):
        cols = SegmentColumns(("start", "end"))
        cols.append(seg_rows((0, 0, 0, 4, 0), (1, 1, 4, 6, 0)))
        assert cols.n == 2
        assert cols.col("start").tolist() == [0, 4]
        assert cols.col("end").tolist() == [4, 10]


class TestStreamResolved:
    def test_edges_held_until_both_endpoints_arrive(self):
        """An edge chunk flushed ahead of its segment chunk is buffered."""
        source = _FakeSource([
            ("segs", seg_rows((0, 0, 0, 4, 0), (1, 1, 4, 2, 0))),
            ("data", data_rows((0, 1, 8), (1, 2, 16), (0, 3, 32))),
            ("segs", seg_rows((2, 2, 6, 1, 0))),
            ("segs", seg_rows((3, 3, 7, 1, 0))),
        ])
        cols = SegmentColumns(())
        order = [
            (table, rows["dst"].tolist() if table == "data" else len(rows))
            for table, rows in stream_resolved(source, cols)
        ]
        assert order == [
            ("segs", 2), ("data", [1]),
            ("segs", 1), ("data", [2]),
            ("segs", 1), ("data", [3]),
        ]
        assert cols.n == 4

    def test_backward_edges_resolve_on_the_younger_endpoint(self):
        """Threaded logs carry data edges whose consumer is *older* than
        the producer; they must be held until the producer arrives."""
        source = _FakeSource([
            ("segs", seg_rows((0, 0, 0, 4, 0))),
            ("data", data_rows((2, 0, 8))),  # producer not yet seen
            ("segs", seg_rows((1, 1, 4, 2, 0), (2, 2, 6, 1, 1))),
        ])
        out = list(stream_resolved(source, SegmentColumns(())))
        assert [t for t, _ in out] == ["segs", "segs", "data"]

    def test_dangling_edge_rejected_at_eof(self):
        source = _FakeSource([
            ("segs", seg_rows((0, 0, 0, 4, 0))),
            ("data", data_rows((0, 5, 8))),
        ])
        with pytest.raises(ValueError, match="endpoints out of range"):
            list(stream_resolved(source, SegmentColumns(())))

    def test_negative_endpoint_rejected(self):
        source = _FakeSource([
            ("segs", seg_rows((0, 0, 0, 4, 0))),
            ("data", data_rows((-1, 0, 8))),
        ])
        with pytest.raises(ValueError, match="endpoints out of range"):
            list(stream_resolved(source, SegmentColumns(())))

    def test_negative_ops_rejected(self):
        source = _FakeSource([("segs", seg_rows((0, 0, 0, -1, 0)))])
        with pytest.raises(ValueError, match="non-negative"):
            list(stream_resolved(source, SegmentColumns(())))

    def test_negative_bytes_rejected(self):
        source = _FakeSource([
            ("segs", seg_rows((0, 0, 0, 4, 0), (1, 1, 4, 2, 0))),
            ("data", data_rows((0, 1, -8))),
        ])
        with pytest.raises(ValueError, match="byte counts"):
            list(stream_resolved(source, SegmentColumns(())))

    def test_peak_chunk_bytes_gauge(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        source = as_chunk_source(make_log(), chunk_rows=4)
        list(stream_resolved(source, SegmentColumns(()), telemetry=tel))
        peak = tel.metrics.snapshot()["analysis.stream.peak_chunk_bytes"]
        assert 0 < peak <= 4 * SEG_DTYPE.itemsize


class TestEdgeCursor:
    def test_walks_sorted_run_in_order(self):
        source = as_chunk_source(make_log(), chunk_rows=2)
        cursor = EdgeCursor(source.chunks(tables=("data",)), "data")
        src, dst = cursor.take_below(3)
        assert dst.tolist() == [2]
        src, dst = cursor.take_below(100)
        assert dst.tolist() == [3, 11]
        cursor.require_empty(12)

    def test_unsorted_destinations_raise(self):
        chunks = iter([
            ("data", data_rows((0, 3, 8))),
            ("data", data_rows((0, 1, 8))),
        ])
        cursor = EdgeCursor(chunks, "data")
        with pytest.raises(UnsortedEdges):
            # Consuming past the first chunk advances into the violation.
            cursor.take_below(4)

    def test_backward_edge_raises_topology_error(self):
        chunks = iter([("data", data_rows((3, 1, 8)))])
        cursor = EdgeCursor(chunks, "data")
        with pytest.raises(ValueError, match="topologically ordered"):
            cursor.take_below(4)

    def test_require_empty_rejects_leftovers(self):
        chunks = iter([("data", data_rows((0, 1, 8)))])
        cursor = EdgeCursor(chunks, "data")
        with pytest.raises(ValueError, match="endpoints out of range"):
            cursor.require_empty(1)


class TestStreamingEquivalence:
    """Streamed analyses match the materialised ones bit for bit."""

    @pytest.mark.parametrize("chunk_rows", [1, 3, 64])
    def test_critical_path_chunk_size_invariant(self, chunk_rows):
        log = make_log(40)
        expected = naive_critical_path(log)
        assert_matches_oracle(analyze_critical_path(log), expected)
        assert_matches_oracle(
            analyze_critical_path(
                ChunkSource(dumps_events_bin(log, chunk_rows=chunk_rows))
            ),
            expected,
        )

    def test_unsorted_data_edges_fall_back_to_materialised(self):
        """dst-unsorted (but forward) edge tables are loaded and sorted by
        destination once, then analyse exactly like the naive model."""
        log = make_log(8)
        # dst 5 after dst 6: unsorted.
        log.data = np.concatenate([log.data, data_rows((4, 6, 8), (0, 5, 8))])
        expected = naive_critical_path(log)
        for form in (log, ChunkSource(dumps_events_bin(log))):
            assert_matches_oracle(analyze_critical_path(form), expected)

    def test_thread_comm_matrix_accepts_file_and_log(self, tmp_path):
        from repro.analysis import thread_comm_matrix

        log = make_log()
        path = tmp_path / "ev.bin"
        path.write_bytes(dumps_events_bin(log, chunk_rows=2))
        assert thread_comm_matrix(path) == thread_comm_matrix(log)

    def test_ctx_comm_accepts_file_and_log(self, tmp_path):
        from repro.analysis import ctx_comm_from_events

        log = make_log()
        blob = dumps_events_bin(log, chunk_rows=2)
        assert ctx_comm_from_events(blob) == ctx_comm_from_events(log)

    def test_schedule_accepts_binary_bytes(self):
        from repro.analysis import schedule_events

        log = make_log(20)
        base = schedule_events(log, 4)
        streamed = schedule_events(dumps_events_bin(log, chunk_rows=3), 4)
        assert streamed.makespan == base.makespan
        assert streamed.speedup == pytest.approx(base.speedup)
