"""Event-file persistence tests."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_critical_path
from repro.core.segments import (
    OC_KIND_CALL,
    OC_KIND_ORDER,
    EventArrays,
    EventLog,
)
from repro.io import dump_events, dumps_events, load_event_arrays, loads_events


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


class TestRoundTrip:
    def test_text_stable(self):
        log = make_log()
        text = dumps_events(log)
        assert dumps_events(loads_events(text)) == text

    def test_segments_preserved(self):
        loaded = loads_events(dumps_events(make_log()))
        assert loaded.n_segments == 3
        assert loaded.segs["ops"].tolist() == [3, 10, 7]
        assert loaded.segs["start"].tolist() == [0, 5, 9]

    def test_edges_preserved(self):
        loaded = loads_events(dumps_events(make_log()))
        assert loaded == make_log()
        assert loaded.ordercall["kind"].tolist() == [
            OC_KIND_CALL, OC_KIND_ORDER
        ]
        assert loaded.data.tolist() == [(1, 2, 64)]

    def test_critical_path_identical_after_roundtrip(self, toy_profiles):
        sigil, _ = toy_profiles
        loaded = loads_events(dumps_events(sigil.events))
        live = analyze_critical_path(sigil.events)
        offline = analyze_critical_path(loaded)
        assert offline.critical_length == live.critical_length
        assert offline.serial_length == live.serial_length

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "events.txt"
        dump_events(make_log(), path)
        assert load_event_arrays(path) == make_log()


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            loads_events("garbage\n")

    def test_out_of_order_segments_rejected(self):
        with pytest.raises(ValueError):
            loads_events("# sigil-events 1\nseg 5 0 0 0 0\n")

    def test_unknown_edge_kind(self):
        with pytest.raises(ValueError):
            loads_events("# sigil-events 1\nseg 0 0 0 0 0\nedge warp 0 0\n")

    def test_errors_carry_line_number_and_text(self):
        with pytest.raises(ValueError) as exc:
            loads_events("# sigil-events 1\nseg 0 0 0 0 0\nseg x y z 0 0\n")
        assert "line 3" in str(exc.value)
        assert "seg x y z 0 0" in str(exc.value)

    def test_out_of_order_error_names_the_line(self):
        with pytest.raises(ValueError, match=r"line 2"):
            loads_events("# sigil-events 1\nseg 5 0 0 0 0\n")

    def test_wrong_field_count_reported(self):
        with pytest.raises(ValueError, match=r"5 or 6 fields.*line 2"):
            loads_events("# sigil-events 1\nseg 0 0\n")

    def test_data_edge_operand_count(self):
        with pytest.raises(ValueError, match=r"data edges take 3 operands"):
            loads_events("# sigil-events 1\nseg 0 0 0 0 0\nedge data 0 0\n")

    def test_malformed_edge_bytes(self):
        with pytest.raises(ValueError) as exc:
            loads_events(
                "# sigil-events 1\nseg 0 0 0 0 0\nedge data 0 0 lots\n"
            )
        assert "malformed edge record" in str(exc.value)
        assert "line 3" in str(exc.value)

    def test_blank_and_comment_lines_skipped(self):
        loaded = loads_events(
            "# sigil-events 1\n\n# a comment\nseg 0 0 0 0 0\n"
        )
        assert loaded.n_segments == 1

    def test_negative_ops_rejected(self):
        """Regression: negative ops used to load silently and corrupt every
        downstream cost sum."""
        with pytest.raises(
            ValueError, match=r"ops must be non-negative.*line 2"
        ):
            loads_events("# sigil-events 1\nseg 0 0 0 0 -3 0\n")

    def test_negative_thread_rejected(self):
        with pytest.raises(
            ValueError, match=r"thread must be non-negative.*line 2"
        ):
            loads_events("# sigil-events 1\nseg 0 0 0 0 5 -1\n")

    def test_negative_data_bytes_rejected(self):
        """Regression: negative data-edge bytes used to load silently."""
        with pytest.raises(
            ValueError, match=r"bytes must be non-negative.*line 4"
        ):
            loads_events(
                "# sigil-events 1\n"
                "seg 0 0 0 0 1 0\n"
                "seg 1 1 1 1 1 0\n"
                "edge data 0 1 -64\n"
            )


    TWO_SEGS = "# sigil-events 1\nseg 0 0 0 0 1 0\nseg 1 1 1 1 1 0\n"

    @pytest.mark.parametrize(
        "edge, message",
        [
            ("edge order 0 9", "order/call edge endpoints out of range"),
            ("edge call -1 1", "order/call edge endpoints out of range"),
            ("edge data 0 9 8", "data edge endpoints out of range"),
            ("edge order 1 0", "must point forward in time"),
            ("edge call 1 1", "must point forward in time"),
        ],
        ids=["order-past-end", "call-negative", "data-past-end",
             "order-backward", "call-self-loop"],
    )
    def test_bad_edges_rejected_with_their_line(self, edge, message):
        """Regression: these loaded silently, though the v2 loader rejects
        the same rows."""
        with pytest.raises(ValueError) as exc:
            loads_events(self.TWO_SEGS + "edge call 0 1\n" + edge + "\n")
        assert message in str(exc.value)
        assert f"(line 5: {edge!r})" in str(exc.value)


class TestThreadField:
    def test_six_field_seg_roundtrips_thread(self):
        log = EventLog()
        s0 = log.new_segment(0, 0, 0, thread=2)
        s0.ops = 4
        text = dumps_events(log.to_arrays())
        assert "seg 0 0 0 0 4 2" in text
        assert loads_events(text).segs["thread"][0] == 2

    def test_legacy_five_field_seg_defaults_thread_zero(self):
        loaded = loads_events("# sigil-events 1\nseg 0 0 0 0 7\n")
        assert loaded.segs["thread"][0] == 0
        assert loaded.segs["ops"][0] == 7
