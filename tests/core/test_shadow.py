"""Shadow memory structure tests (Table I, section II-B)."""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right

import pytest

from repro.core.shadow import (
    SHADOW_PAGE_SIZE,
    ShadowMemory,
    ShadowPage,
    record_layout,
)


def _store(page, lo, hi, record):
    """Set units ``[lo, hi)`` the way the write kernel does: bisect to the
    runs they meet and splice one record over them."""
    i = bisect_right(page.starts, lo) - 1
    j = bisect_left(page.starts, hi, i + 1)
    page.splice(i, j, lo, hi, [record])


def _records(page, layout):
    """Every unit's decoded record, from the page's runs."""
    ends = page.starts[1:].tolist() + [SHADOW_PAGE_SIZE]
    out = []
    for k, (start, end) in enumerate(zip(page.starts, ends)):
        rec = layout.struct.unpack_from(page.recs, k * layout.struct.size)
        out += [rec] * (end - start)
    return out


class TestShadowPage:
    def test_initialised_invalid(self):
        """Shadow objects start 'invalid' until touched."""
        page = ShadowPage(0, reuse_mode=False, event_mode=False)
        layout = record_layout(reuse_mode=False, event_mode=False)
        records = _records(page, layout)
        assert len(records) == SHADOW_PAGE_SIZE
        assert all(rec[layout.writer] == -1 for rec in records)
        assert all(rec[layout.reader] == -1 for rec in records)
        assert all(rec[layout.reader_call] == -1 for rec in records)

    def test_baseline_has_no_reuse_fields(self):
        """Table I: the re-use variables are 'Additional variables for Reuse
        mode' only."""
        page = ShadowPage(0, reuse_mode=False, event_mode=False)
        layout = record_layout(reuse_mode=False, event_mode=False)
        assert layout.reuse_count is None
        assert layout.win_first is None
        assert layout.writer_seg is None
        assert len(page.recs) == struct.calcsize("<iiq")

    def test_reuse_mode_extends_object(self):
        page = ShadowPage(0, reuse_mode=True, event_mode=True)
        layout = record_layout(reuse_mode=True, event_mode=True)
        assert layout.reuse_count is not None
        assert all(rec[layout.win_first] == -1 for rec in _records(page, layout))
        assert layout.writer_seg is not None

    def test_reuse_mode_footprint_larger(self):
        """"With data-re-use monitoring enabled, Sigil's memory usage is up
        to 2 times larger" -- the per-page footprint reflects the extra
        fields."""
        base = ShadowPage(0, reuse_mode=False, event_mode=False).nbytes
        reuse = ShadowPage(0, reuse_mode=True, event_mode=False).nbytes
        assert reuse > base
        assert reuse <= 3 * base

    @pytest.mark.parametrize(
        "reuse_mode, event_mode, record_size",
        [(False, False, 16), (False, True, 24), (True, False, 36), (True, True, 44)],
    )
    def test_packed_record_size(self, reuse_mode, event_mode, record_size):
        """One packed record per unit, as large as its fields' itemsizes."""
        page = ShadowPage(0, reuse_mode=reuse_mode, event_mode=event_mode)
        assert page.nbytes == record_size * SHADOW_PAGE_SIZE
        memory = ShadowMemory(reuse_mode=reuse_mode, event_mode=event_mode)
        assert memory.page_bytes == page.nbytes

    def test_store_packs_fields_in_table_order(self):
        """A stored record is packed little-endian in Table I order: writer,
        reader, reader_call, writer_seg, reuse_count, win_first, win_last;
        the units around it keep theirs, as runs of their own."""
        page = ShadowPage(0, reuse_mode=True, event_mode=True)
        layout = record_layout(reuse_mode=True, event_mode=True)
        _store(page, 3, 4, struct.pack("<iiqqiqq", 5, -1, -1, 9, 2, -1, 7))
        assert page.starts.tolist() == [0, 3, 4]
        records = _records(page, layout)
        assert records[3][layout.writer] == 5
        assert records[3][layout.writer_seg] == 9
        assert records[3][layout.reuse_count] == 2
        assert records[3][layout.win_last] == 7
        assert layout.struct.pack(*records[3]) == struct.pack(
            "<iiqqiqq", 5, -1, -1, 9, 2, -1, 7
        )
        assert layout.struct.pack(*records[2]) == struct.pack(
            "<iiqqiqq", -1, -1, -1, -1, 0, -1, -1
        )


class TestTwoLevelTable:
    def test_pages_materialise_on_touch(self):
        shadow = ShadowMemory()
        assert shadow.live_pages == 0
        shadow.page(7)
        shadow.page(7)
        shadow.page(123456)
        assert shadow.live_pages == 2
        assert shadow.pages_created == 2

    def test_chunks_split_across_pages(self):
        shadow = ShadowMemory()
        addr = SHADOW_PAGE_SIZE - 10
        chunks = list(shadow.chunks(addr, 20))
        assert len(chunks) == 2
        (p1, lo1, hi1), (p2, lo2, hi2) = chunks
        assert (hi1 - lo1) + (hi2 - lo2) == 20
        assert lo1 == SHADOW_PAGE_SIZE - 10 and hi1 == SHADOW_PAGE_SIZE
        assert lo2 == 0 and hi2 == 10
        assert p1.page_no == 0 and p2.page_no == 1

    def test_chunks_empty_for_zero_size(self):
        shadow = ShadowMemory()
        assert list(shadow.chunks(100, 0)) == []
        assert shadow.live_pages == 0

    def test_live_runs_counts_held_runs(self):
        """The model footprint counts 4,096 records a page; ``live_runs``
        counts the runs the pages actually hold."""
        shadow = ShadowMemory()
        layout = record_layout(reuse_mode=False, event_mode=False)
        _store(shadow.page(0), 10, 20, layout.struct.pack(1, -1, -1))
        shadow.page(1)
        assert shadow.live_runs == 3 + 1
        assert shadow.shadow_bytes == 2 * SHADOW_PAGE_SIZE * layout.struct.size

    def test_footprint_accounting(self):
        shadow = ShadowMemory()
        shadow.page(0)
        per_page = shadow.shadow_bytes
        shadow.page(1)
        assert shadow.shadow_bytes == 2 * per_page
        assert shadow.peak_shadow_bytes == 2 * per_page


class TestFifoMemoryLimit:
    def test_eviction_keeps_page_count_bounded(self):
        """The memory-limit option frees shadow of least recently touched
        addresses (section III-A)."""
        shadow = ShadowMemory(max_pages=4)
        for i in range(10):
            shadow.page(i)
        assert shadow.live_pages == 4
        assert shadow.pages_evicted == 6

    def test_eviction_is_least_recently_touched(self):
        shadow = ShadowMemory(max_pages=2)
        shadow.page(0)
        shadow.page(1)
        shadow.page(0)  # refresh 0; page 1 is now the coldest
        shadow.page(2)  # evicts 1
        live = {p.page_no for p in shadow.pages()}
        assert live == {0, 2}

    def test_eviction_callback_receives_victim(self):
        victims = []
        shadow = ShadowMemory(max_pages=1, on_evict=lambda p: victims.append(p.page_no))
        shadow.page(10)
        shadow.page(11)
        shadow.page(12)
        assert victims == [10, 11]

    def test_evicted_page_state_is_fresh_on_return(self):
        """Re-touching an evicted page sees invalid shadow objects again
        (the accuracy loss the paper calls negligible)."""
        shadow = ShadowMemory(max_pages=1)
        layout = record_layout(reuse_mode=False, event_mode=False)
        page = shadow.page(5)
        _store(page, 0, SHADOW_PAGE_SIZE, layout.struct.pack(42, -1, -1))
        assert all(rec[layout.writer] == 42 for rec in _records(page, layout))
        shadow.page(6)  # evicts 5
        page_again = shadow.page(5)  # evicts 6, fresh 5
        assert all(rec[layout.writer] == -1 for rec in _records(page_again, layout))


class TestLimitValidation:
    def test_zero_limit_rejected_via_config(self):
        from repro.core.config import SigilConfig

        with pytest.raises(ValueError):
            SigilConfig(max_shadow_pages=0)
