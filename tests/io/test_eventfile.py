"""Text event-log (``# sigil-events 1``) tests.

v1 is write-only: the writer's text is pinned here, logs reach it back
only through the v2 reader, and every event reader rejects a v1 file by
name.  The validation tests hand the v2 reader the malformed records a v1
line could once carry; it names the table row, chunk and byte offset.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.analysis import analyze_critical_path, speedup_curve
from repro.analysis.streaming import ChunkSource
from repro.cli import main
from repro.core.segments import (
    DATA_EDGE_DTYPE,
    OC_EDGE_DTYPE,
    SEG_DTYPE,
    EventArrays,
    EventLog,
)
from repro.io import dump_events, dumps_events, dumps_events_bin, load_event_arrays


def make_log() -> EventArrays:
    log = EventLog()
    s0 = log.new_segment(0, 0, 0)
    s1 = log.new_segment(1, 1, 5)
    s2 = log.new_segment(2, 2, 9)
    s0.ops, s1.ops, s2.ops = 3, 10, 7
    log.add_call_edge(0, 1)
    log.add_order_edge(0, 2)
    log.add_data_bytes(1, 2, 64)
    return log.to_arrays()


def via_v2(events: EventArrays, **dump_kwargs) -> EventArrays:
    """``events`` written as v2 and read back by the one loader."""
    return load_event_arrays(io.BytesIO(dumps_events_bin(events, **dump_kwargs)))


class TestRoundTrip:
    def test_text_stable(self):
        """The text of a log read back from v2 is the log's own text."""
        text = dumps_events(make_log())
        assert dumps_events(via_v2(make_log())) == text

    def test_segments_preserved(self):
        lines = dumps_events(make_log()).splitlines()
        assert lines[:4] == [
            "# sigil-events 1",
            "seg 0 0 0 0 3 0",
            "seg 1 1 1 5 10 0",
            "seg 2 2 2 9 7 0",
        ]

    def test_edges_preserved(self):
        """Order/call edges keep their interleaving, then data edges."""
        lines = dumps_events(make_log()).splitlines()
        assert lines[4:] == ["edge call 0 1", "edge order 0 2", "edge data 1 2 64"]

    def test_critical_path_identical_after_roundtrip(self, toy_profiles):
        sigil, _ = toy_profiles
        loaded = via_v2(sigil.events)
        live = analyze_critical_path(sigil.events)
        offline = analyze_critical_path(loaded)
        assert offline.critical_length == live.critical_length
        assert offline.serial_length == live.serial_length
        assert dumps_events(loaded) == dumps_events(sigil.events)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "events.txt"
        dump_events(make_log(), path)
        assert path.read_text() == dumps_events(make_log())


def _arrays(segs=(), ordercall=(), data=()) -> EventArrays:
    return EventArrays(
        segs=np.array(list(segs), dtype=SEG_DTYPE),
        ordercall=np.array(list(ordercall), dtype=OC_EDGE_DTYPE),
        data=np.array(list(data), dtype=DATA_EDGE_DTYPE),
    )


def _load_bad(arrays: EventArrays) -> str:
    """The loader's message for ``arrays`` written one row per chunk."""
    with pytest.raises(ValueError) as exc:
        via_v2(arrays, compression=None, chunk_rows=1)
    return str(exc.value)


TWO_SEGS = [(0, 0, 0, 1, 0), (1, 1, 1, 1, 0)]


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="bad magic"):
            load_event_arrays(io.BytesIO(b"garbage\n"))

    def test_unknown_edge_kind(self):
        """Regression: an order/call row of any other kind loaded, and the
        text writer then failed on it with a bare KeyError."""
        message = _load_bad(_arrays(TWO_SEGS, [(7, 0, 1)]))
        assert "unknown order/call edge kind 7" in message
        assert "oced row 0" in message

    def test_negative_ops_rejected(self):
        """Regression: negative ops used to load silently and corrupt every
        downstream cost sum."""
        message = _load_bad(_arrays([(0, 0, 0, -3, 0)]))
        assert "ops must be non-negative" in message
        assert "(segs row 0, in chunk 1 at byte " in message

    def test_negative_thread_rejected(self):
        message = _load_bad(_arrays([(0, 0, 0, 5, 0), (0, 0, 0, 5, -1)]))
        assert "thread must be non-negative" in message
        assert "(segs row 1, in chunk 2 at byte " in message

    def test_negative_data_bytes_rejected(self):
        """Regression: negative data-edge bytes used to load silently."""
        message = _load_bad(_arrays(TWO_SEGS, data=[(0, 1, -64)]))
        assert "bytes must be non-negative" in message
        assert "(data row 0, in chunk 3 at byte " in message

    @pytest.mark.parametrize(
        "table, edge, message",
        [
            ("oced", (0, 0, 9), "order/call edge endpoints out of range"),
            ("oced", (1, -1, 1), "order/call edge endpoints out of range"),
            ("data", (0, 9, 8), "data edge endpoints out of range"),
            ("oced", (0, 1, 0), "must point forward in time"),
            ("oced", (1, 1, 1), "must point forward in time"),
        ],
        ids=["order-past-end", "call-negative", "data-past-end",
             "order-backward", "call-self-loop"],
    )
    def test_bad_edges_rejected_with_their_line(self, table, edge, message):
        """A bad edge names its row and the chunk holding it: here the
        edge after one good call edge, each row in a chunk of its own."""
        good_call = [(1, 0, 1)]
        if table == "oced":
            arrays = _arrays(TWO_SEGS, good_call + [edge])
            where = "(oced row 1, in chunk 4 at byte "
        else:
            arrays = _arrays(TWO_SEGS, good_call, [edge])
            where = "(data row 0, in chunk 4 at byte "
        text = _load_bad(arrays)
        assert message in text
        assert where in text


class TestThreadField:
    def test_six_field_seg_roundtrips_thread(self):
        log = EventLog()
        s0 = log.new_segment(0, 0, 0, thread=2)
        s0.ops = 4
        text = dumps_events(log.to_arrays())
        assert "seg 0 0 0 0 4 2" in text
        loaded = via_v2(log.to_arrays())
        assert loaded.segs["thread"][0] == 2
        assert dumps_events(loaded) == text


def _critpath(path):
    return main(["critpath", str(path)])


def _timeline(path):
    return main(["timeline", str(path), "-o", str(path) + ".trace.json"])


def _trace(path):
    return main(["trace", str(path), "-o", str(path) + ".trace.json"])


READERS = {
    "load_event_arrays": load_event_arrays,
    "ChunkSource-path": lambda path: list(ChunkSource(path).chunks()),
    "ChunkSource-bytes": lambda path: list(
        ChunkSource(path.read_bytes()).chunks()
    ),
    "repro-critpath": _critpath,
    "repro-timeline": _timeline,
    "repro-trace": _trace,
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_rejects_v1_as_write_only(reader, tmp_path, capsys):
    """v1 is for people: each reader names the format instead of parsing."""
    path = tmp_path / "log.events"
    dump_events(make_log(), path)
    read = READERS[reader]
    if reader.startswith("repro-"):
        assert read(path) == 2
        message = capsys.readouterr().err
        assert not (tmp_path / "log.events.trace.json").exists()
    else:
        with pytest.raises(ValueError) as exc:
            read(path)
        message = str(exc.value)
    assert "v1 text event log" in message
    assert "write-only" in message


STREAMED = {
    "repro-critpath": _critpath,
    "repro-critpath-cores": lambda path: main(
        ["critpath", str(path), "--cores", "2"]
    ),
    "repro-timeline": _timeline,
    "speedup_curve": lambda path: speedup_curve(path, [2]),
}

BAD_LOGS = {
    # Segment 2 of four, one row per chunk.
    "ops": _arrays(
        [(0, 0, 0, 1, 0), (1, 1, 1, 1, 0), (2, 2, 2, -3, 0), (3, 3, 3, 1, 0)],
        [(0, 0, 1), (0, 1, 2), (0, 2, 3)],
    ),
    # The third data row, in a table that is not sorted by destination
    # (the critical path sorts it before the bad row is reached).
    "bytes": _arrays(
        [(0, 0, 0, 1, 0), (1, 1, 1, 1, 0), (2, 2, 2, 1, 0), (3, 3, 3, 1, 0)],
        [(0, 0, 1)],
        [(0, 3, 8), (0, 1, 8), (1, 2, -8)],
    ),
}


@pytest.mark.parametrize("bad", sorted(BAD_LOGS))
@pytest.mark.parametrize("reader", sorted(STREAMED))
def test_streamed_readers_name_the_bad_row(reader, bad, tmp_path, capsys):
    """Streamed analyses locate a bad row as the loader does: its table
    row, and the chunk and byte offset it was read from."""
    path = tmp_path / "bad.bin"
    dumps = dumps_events_bin(BAD_LOGS[bad], compression=None, chunk_rows=1)
    path.write_bytes(dumps)
    with pytest.raises(ValueError) as exc:
        load_event_arrays(path)
    expected = str(exc.value)
    assert ", in chunk " in expected
    read = STREAMED[reader]
    if reader.startswith("repro-"):
        assert read(path) == 2
        message = capsys.readouterr().err
    else:
        with pytest.raises(ValueError) as exc:
            read(path)
        message = str(exc.value)
    assert expected in message


def test_in_memory_logs_name_the_bad_row():
    with pytest.raises(ValueError, match=r"got -3 \(segs row 2\)$"):
        speedup_curve(BAD_LOGS["ops"], [2])
