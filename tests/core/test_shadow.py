"""Shadow memory structure tests (Table I, section II-B)."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.shadow import SHADOW_PAGE_SIZE, ShadowMemory, ShadowPage


class TestShadowPage:
    def test_initialised_invalid(self):
        """Shadow objects start 'invalid' until touched."""
        page = ShadowPage(0, reuse_mode=False, event_mode=False)
        assert (page.writer == -1).all()
        assert (page.reader == -1).all()
        assert (page.reader_call == -1).all()

    def test_baseline_has_no_reuse_fields(self):
        """Table I: the re-use variables are 'Additional variables for Reuse
        mode' only."""
        page = ShadowPage(0, reuse_mode=False, event_mode=False)
        assert page.reuse_count is None
        assert page.win_first is None
        assert page.writer_seg is None

    def test_reuse_mode_extends_object(self):
        page = ShadowPage(0, reuse_mode=True, event_mode=True)
        assert page.reuse_count is not None
        assert (page.win_first == -1).all()
        assert page.writer_seg is not None

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

    def test_field_views_write_through_to_the_record(self):
        """Fields are views into the packed little-endian record buffer, in
        Table I order: writer, reader, reader_call, writer_seg, reuse_count,
        win_first, win_last."""
        page = ShadowPage(0, reuse_mode=True, event_mode=True)
        page.writer[3] = 5
        page.writer_seg[3] = 9
        page.reuse_count[3] = 2
        page.win_last[3] = 7
        assert page.words[3].tobytes() == struct.pack(
            "<iiqqiqq", 5, -1, -1, 9, 2, -1, 7
        )
        assert page.words[2].tobytes() == struct.pack(
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
        page = shadow.page(5)
        page.writer[:] = 42
        shadow.page(6)  # evicts 5
        page_again = shadow.page(5)  # evicts 6, fresh 5
        assert (page_again.writer == -1).all()


class TestLimitValidation:
    def test_zero_limit_rejected_via_config(self):
        from repro.core.config import SigilConfig

        with pytest.raises(ValueError):
            SigilConfig(max_shadow_pages=0)
