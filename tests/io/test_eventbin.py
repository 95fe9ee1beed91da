"""Binary columnar event-file (``# sigil-events 2``) tests."""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np
import pytest

from repro.core.segments import (
    DATA_EDGE_DTYPE,
    OC_EDGE_DTYPE,
    OC_KIND_CALL,
    OC_KIND_ORDER,
    SEG_DTYPE,
    EventArrays,
)
from repro.io import (
    BinaryEventWriter,
    dump_events,
    dump_events_bin,
    dumps_events,
    dumps_events_bin,
    iter_event_chunks,
    load_event_arrays,
)
from repro.io.eventbin import MAGIC_V2, zstd_available

from tests.eventlog import event_arrays


def make_log() -> EventArrays:
    return event_arrays(
        [(0, 0, 0, 3), (1, 1, 5, 10, 1), (2, 2, 9, 7)],
        [("call", 0, 1), ("order", 0, 2)],
        [(1, 2, 64)],
    )


def one_seg(ctx=0, call=0, start=0, ops=1, thread=0) -> np.ndarray:
    """One :data:`SEG_DTYPE` row, for appending a segment at a time."""
    return np.array([(ctx, call, start, ops, thread)], dtype=SEG_DTYPE)


class TestRoundTrip:
    @pytest.mark.parametrize("compression", [None, "gzip"])
    def test_bytes_roundtrip(self, compression):
        log = make_log()
        blob = dumps_events_bin(log, compression=compression)
        assert blob.startswith(MAGIC_V2)
        assert load_event_arrays(io.BytesIO(blob)) == log

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "events.bin"
        dump_events_bin(make_log(), path)
        assert load_event_arrays(path) == make_log()

    def test_v1_v2_v1_byte_identical(self):
        log = make_log()
        via_v2 = load_event_arrays(io.BytesIO(dumps_events_bin(log)))
        assert dumps_events(via_v2) == dumps_events(log)

    def test_chunked_roundtrip(self):
        """Tables spanning many tiny chunks reassemble losslessly."""
        log = make_log()
        blob = dumps_events_bin(log, chunk_rows=1)
        assert load_event_arrays(io.BytesIO(blob)) == log

    def test_empty_log(self):
        blob = dumps_events_bin(event_arrays())
        loaded = load_event_arrays(io.BytesIO(blob))
        assert loaded.n_segments == 0
        assert len(loaded.ordercall) == 0 and len(loaded.data) == 0

    def test_order_call_interleaving_preserved(self):
        log = event_arrays(
            [(i, i, i, 0) for i in range(4)],
            [("order", 0, 1), ("call", 1, 2), ("order", 2, 3)],
        )
        blob = dumps_events_bin(log)
        loaded = load_event_arrays(io.BytesIO(blob))
        assert loaded.ordercall["kind"].tolist() == [
            OC_KIND_ORDER, OC_KIND_CALL, OC_KIND_ORDER
        ]

    def test_accepts_event_arrays_input(self):
        arrays = make_log()
        blob = dumps_events_bin(arrays)
        assert load_event_arrays(io.BytesIO(blob)) == arrays


class TestStreamingWriter:
    def test_scalar_appends_match_bulk_dump(self, tmp_path):
        """Rows appended one at a time land as a single bulk dump would."""
        log = make_log()
        path = tmp_path / "stream.bin"
        with BinaryEventWriter(path, chunk_rows=2) as w:
            for table, write in (
                (log.segs, w.write_segments),
                (log.ordercall, w.write_order_call_edges),
                (log.data, w.write_data_edges),
            ):
                for i in range(len(table)):
                    write(table[i : i + 1])
        assert load_event_arrays(path) == log

    def test_unclosed_writer_detected_as_truncated(self, tmp_path):
        path = tmp_path / "truncated.bin"
        w = BinaryEventWriter(path)
        w.write_segments(one_seg())
        w._fh.flush()
        # no close(): trailer missing
        with pytest.raises(ValueError, match="trailer"):
            list(iter_event_chunks(path))
        w.close()

    def test_write_after_close_rejected(self, tmp_path):
        w = BinaryEventWriter(tmp_path / "closed.bin")
        w.close()
        with pytest.raises(ValueError, match="closed"):
            w.write_segments(one_seg())

    def test_streaming_reader_yields_per_chunk(self):
        blob = dumps_events_bin(make_log(), chunk_rows=1)
        chunks = list(iter_event_chunks(io.BytesIO(blob)))
        assert [t for t, _ in chunks].count("segs") == 3
        assert all(len(rows) == 1 for _, rows in chunks)
        assert all(
            rows.dtype in (SEG_DTYPE, OC_EDGE_DTYPE, DATA_EDGE_DTYPE)
            for _, rows in chunks
        )


class TestSniffing:
    def test_load_event_arrays_sniffs_both(self, tmp_path):
        """The magic tells the versions apart: v2 loads, and the
        write-only v1 is rejected by name."""
        log = make_log()
        v1, v2 = tmp_path / "v1.events", tmp_path / "v2.events"
        dump_events(log, v1)
        dump_events_bin(log, v2)
        assert load_event_arrays(v2) == log
        with pytest.raises(ValueError, match="v1 text event log .* write-only"):
            load_event_arrays(v1)


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            load_event_arrays(
                io.BytesIO(b"# sigil-events 1\nseg 0 0 0 0 0\n")
            )

    def test_truncated_payload(self):
        blob = dumps_events_bin(make_log())
        with pytest.raises(ValueError, match="truncated"):
            load_event_arrays(io.BytesIO(blob[:-10]))

    def test_unknown_chunk_tag(self):
        buf = io.BytesIO()
        buf.write(MAGIC_V2)
        buf.write(struct.pack("<4s4sQ", b"wild", b"raw.", 0))
        with pytest.raises(ValueError, match="unknown event-chunk tag"):
            list(iter_event_chunks(io.BytesIO(buf.getvalue())))

    def test_trailer_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.bin"
        w = BinaryEventWriter(path, compression=None)
        w.write_segments(one_seg())
        w._counts[b"segs"] = 2  # corrupt the bookkeeping before sealing
        w.close()
        with pytest.raises(ValueError, match="trailer row counts"):
            load_event_arrays(path)

    def test_negative_ops_rejected(self):
        arrays = make_log()
        arrays.segs["ops"][0] = -1
        blob = dumps_events_bin(arrays)
        with pytest.raises(ValueError, match="non-negative"):
            load_event_arrays(io.BytesIO(blob))

    def test_backward_edge_rejected(self):
        arrays = make_log()
        arrays.ordercall["src"][0] = 2
        arrays.ordercall["dst"][0] = 1
        blob = dumps_events_bin(arrays)
        with pytest.raises(ValueError, match="forward"):
            load_event_arrays(io.BytesIO(blob))

    def test_zstd_gated_when_unavailable(self):
        if zstd_available():
            pytest.skip("zstandard installed; gating not exercised")
        with pytest.raises(ValueError, match="zstandard"):
            dumps_events_bin(make_log(), compression="zstd")


class TestErrorLocation:
    """Truncation/corruption errors name the chunk index and byte offset."""

    def test_truncated_payload_names_chunk_and_offset(self):
        blob = dumps_events_bin(make_log(), compression=None, chunk_rows=1)
        with pytest.raises(ValueError, match=r"chunk \d+ at byte \d+"):
            list(iter_event_chunks(io.BytesIO(blob[:-10])))

    def test_partial_header_names_chunk_and_offset(self):
        blob = dumps_events_bin(make_log(), compression=None)
        # Cut inside a chunk header: magic + 3 bytes of the first header.
        cut = blob[: len(MAGIC_V2) + 3]
        with pytest.raises(
            ValueError, match=r"partial chunk header \(chunk 0 at byte \d+\)"
        ):
            list(iter_event_chunks(io.BytesIO(cut)))

    def test_reported_offset_is_the_real_file_offset(self):
        """The byte offset in the message points at the damaged chunk."""
        blob = dumps_events_bin(make_log(), compression=None, chunk_rows=1)
        # Overwrite the second chunk's tag with garbage; its true offset is
        # magic + first chunk (header + payload length from that header).
        first_len = struct.unpack_from(
            "<Q", blob, len(MAGIC_V2) + 8
        )[0]
        second = len(MAGIC_V2) + 16 + first_len
        bad = bytearray(blob)
        bad[second : second + 4] = b"wild"
        with pytest.raises(
            ValueError,
            match=rf"unknown event-chunk tag .* \(chunk 1 at byte {second}\)",
        ):
            list(iter_event_chunks(io.BytesIO(bytes(bad))))

    def test_trailer_mismatch_names_chunk_and_offset(self, tmp_path):
        path = tmp_path / "bad.bin"
        w = BinaryEventWriter(path, compression=None)
        w.write_segments(one_seg())
        w._counts[b"segs"] = 2
        w.close()
        with pytest.raises(
            ValueError, match=r"trailer row counts .* \(chunk \d+ at byte \d+\)"
        ):
            list(iter_event_chunks(path))

    def test_missing_trailer_names_last_offset(self, tmp_path):
        path = tmp_path / "truncated.bin"
        w = BinaryEventWriter(path)
        w.write_segments(one_seg())
        w._fh.flush()  # no close(): trailer missing
        with pytest.raises(
            ValueError, match=r"missing trailer .*chunk \d+ at byte \d+"
        ):
            list(iter_event_chunks(path))
        w.close()

    @staticmethod
    def _second_chunk(blob: bytes) -> int:
        """Byte offset of chunk 1, the first table chunk after the header."""
        first_len = struct.unpack_from("<Q", blob, len(MAGIC_V2) + 8)[0]
        return len(MAGIC_V2) + 16 + first_len

    def test_huge_chunk_length_is_a_located_truncation(self, tmp_path):
        """A flipped high bit in a 64-bit length reads to end of file and
        reports truncation; it never asks for that many bytes at once."""
        blob = bytearray(dumps_events_bin(make_log(), compression="gzip"))
        second = self._second_chunk(blob)
        (length,) = struct.unpack_from("<Q", blob, second + 8)
        struct.pack_into("<Q", blob, second + 8, length | 1 << 40)
        path = tmp_path / "huge.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(
            ValueError, match=rf"truncated event file.*chunk 1 at byte {second}"
        ):
            load_event_arrays(path)

    def test_corrupt_gzip_payload_names_chunk_and_offset(self, tmp_path):
        blob = bytearray(dumps_events_bin(make_log(), compression="gzip"))
        second = self._second_chunk(blob)
        (length,) = struct.unpack_from("<Q", blob, second + 8)
        blob[second + 16 + length // 2] ^= 0xFF
        path = tmp_path / "flipped.bin"
        path.write_bytes(bytes(blob))
        with pytest.raises(
            ValueError, match=rf"corrupt event file.*chunk 1 at byte {second}"
        ) as info:
            load_event_arrays(path)
        assert isinstance(info.value.__cause__, zlib.error)

    def test_unknown_codec_names_chunk_and_offset(self):
        blob = bytearray(dumps_events_bin(make_log(), compression="gzip"))
        second = self._second_chunk(blob)
        blob[second + 4 : second + 8] = b"lz4."
        with pytest.raises(
            ValueError,
            match=rf"unknown event-chunk codec .* \(chunk 1 at byte {second}\)",
        ):
            list(iter_event_chunks(io.BytesIO(bytes(blob))))

    def test_corrupt_trailer_names_chunk_and_offset(self):
        blob = bytearray(dumps_events_bin(make_log(), compression=None))
        trailer = blob.rfind(b"end.")
        blob[trailer + 16] ^= 0xFF
        with pytest.raises(
            ValueError,
            match=rf"unreadable trailer in .* \(chunk \d+ at byte {trailer}\)",
        ):
            list(iter_event_chunks(io.BytesIO(bytes(blob))))

    def test_non_object_trailer_names_chunk_and_offset(self):
        blob = dumps_events_bin(make_log(), compression=None)
        trailer = blob.rfind(b"end.")
        bad = blob[:trailer] + struct.pack("<4s4sQ", b"end.", b"raw.", 3) + b"[1]"
        with pytest.raises(
            ValueError,
            match=rf"trailer is not an object in .* \(chunk \d+ at byte {trailer}\)",
        ):
            list(iter_event_chunks(io.BytesIO(bad)))

    def test_partial_row_names_chunk_and_offset(self):
        """A raw payload one byte short of whole rows is corrupt, not a
        bare NumPy buffer-size error."""
        blob = bytearray(dumps_events_bin(make_log(), compression=None))
        second = self._second_chunk(blob)
        (length,) = struct.unpack_from("<Q", blob, second + 8)
        struct.pack_into("<Q", blob, second + 8, length - 1)
        del blob[second + 16]
        with pytest.raises(
            ValueError,
            match=rf"not whole .*-byte rows in .* \(chunk 1 at byte {second}\)",
        ):
            list(iter_event_chunks(io.BytesIO(bytes(blob))))


class TestTableFilter:
    """``iter_event_chunks(..., tables=...)`` skips unwanted payloads."""

    def test_filters_to_requested_tables(self):
        blob = dumps_events_bin(make_log())
        only_segs = list(
            iter_event_chunks(io.BytesIO(blob), tables=("segs",))
        )
        assert {t for t, _ in only_segs} == {"segs"}
        assert sum(len(rows) for _, rows in only_segs) == 3
        pair = list(
            iter_event_chunks(io.BytesIO(blob), tables=("segs", "data"))
        )
        assert {t for t, _ in pair} == {"segs", "data"}

    def test_unknown_table_rejected(self):
        blob = dumps_events_bin(make_log())
        with pytest.raises(ValueError, match="unknown event tables"):
            list(iter_event_chunks(io.BytesIO(blob), tables=("edges",)))

    def test_filtered_pass_skips_other_tables_trailer_check(self, tmp_path):
        """Skipped tables are not decoded, so their counts are unchecked."""
        path = tmp_path / "bad_data.bin"
        w = BinaryEventWriter(path, compression=None)
        w.write_segments(one_seg())
        w.write_segments(one_seg(1, 1, 1))
        w.write_data_edges(np.array([(0, 1, 8)], dtype=DATA_EDGE_DTYPE))
        w._counts[b"data"] = 5  # corrupt only the data-table count
        w.close()
        segs = list(iter_event_chunks(path, tables=("segs",)))
        assert sum(len(rows) for _, rows in segs) == 2
        with pytest.raises(ValueError, match="trailer row counts"):
            list(iter_event_chunks(path))
