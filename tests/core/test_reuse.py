"""Re-use mode tests: counts, lifetime windows, histograms (section IV-B)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SigilConfig, SigilProfiler
from repro.core.reuse import REUSE_BUCKET_LABELS, ReuseStats, bucketise_counts
from repro.trace.events import OpKind


def _profiler() -> SigilProfiler:
    return SigilProfiler(SigilConfig(reuse_mode=True))


def _ctx(profile, name):
    return profile.contexts_named(name)[0].id


def _run_open_windows(windows, bin_size):
    """A run that ends with one open re-use window per ``(function,
    lifetime)``: the function writes its own byte, then reads it twice
    ``lifetime`` instructions apart (once, for a zero lifetime)."""
    p = SigilProfiler(SigilConfig(reuse_mode=True))
    p.reuse = ReuseStats(histogram_bin_size=bin_size)
    p.on_run_begin()
    for addr, (name, lifetime) in enumerate(windows):
        p.on_fn_enter(name)
        p.on_mem_write(addr, 1)
        p.on_mem_read(addr, 1)
        if lifetime:
            p.on_op(OpKind.INT, lifetime - 1)
            p.on_mem_read(addr, 1)
        p.on_fn_exit(name)
    p.on_run_end()
    return p.profile()


class TestBucketise:
    def test_bucket_edges(self):
        counts = np.array([0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 50000])
        buckets = bucketise_counts(counts)
        assert buckets.tolist() == [1, 2, 2, 2, 2, 2]

    def test_empty(self):
        assert bucketise_counts(np.array([], dtype=np.int64)).sum() == 0

    def test_labels_align(self):
        assert len(REUSE_BUCKET_LABELS) == 6


class TestByteReuseCounts:
    def test_write_once_read_once_is_zero_reuse(self):
        """Figure 8's bottom section: written once and read only once."""
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_mem_write(0x100, 8)
        p.on_mem_read(0x100, 8)
        p.on_fn_exit("f")
        p.on_run_end()
        breakdown = p.profile().reuse.byte_breakdown()
        assert breakdown["0"] == 8
        assert sum(breakdown.values()) == 8

    def test_read_by_two_functions_still_zero_reuse(self):
        """'read only once within each function it is accessed in'."""
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("w")
        p.on_mem_write(0x100, 8)
        p.on_fn_exit("w")
        for name in ("a", "b"):
            p.on_fn_enter(name)
            p.on_mem_read(0x100, 8)
            p.on_fn_exit(name)
        p.on_run_end()
        breakdown = p.profile().reuse.byte_breakdown()
        assert breakdown["0"] == 8
        assert breakdown["1-9"] == 0

    def test_rereads_accumulate(self):
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_mem_write(0x100, 4)
        for _ in range(4):
            p.on_mem_read(0x100, 4)
        p.on_fn_exit("f")
        p.on_run_end()
        breakdown = p.profile().reuse.byte_breakdown()
        assert breakdown["1-9"] == 4  # 3 re-reads each

    def test_overwrite_retires_old_generation(self):
        """Each overwrite starts a new data object whose re-use is counted
        separately."""
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_mem_write(0x100, 8)
        p.on_mem_read(0x100, 8)
        p.on_mem_read(0x100, 8)   # generation 1: one re-read
        p.on_mem_write(0x100, 8)
        p.on_mem_read(0x100, 8)   # generation 2: zero re-reads
        p.on_fn_exit("f")
        p.on_run_end()
        breakdown = p.profile().reuse.byte_breakdown()
        assert breakdown["1-9"] == 8
        assert breakdown["0"] == 8


class TestLifetimeWindows:
    def test_lifetime_measured_within_a_call(self):
        """Re-use lifetime: time between first and last read of a byte
        within one function call, in retired instructions."""
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_mem_write(0x100, 8)
        p.on_mem_read(0x100, 8)
        from repro.trace.events import OpKind

        p.on_op(OpKind.INT, 500)
        p.on_mem_read(0x100, 8)
        p.on_fn_exit("f")
        p.on_run_end()
        prof = p.profile()
        stats = prof.reuse.per_fn[_ctx(prof, "f")]
        assert stats.reused_windows == 8
        # Lifetime per byte: 500 ops + 1 for the read event itself.
        assert stats.average_lifetime == pytest.approx(501.0)

    def test_single_read_window_not_reused(self):
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_mem_write(0x100, 8)
        p.on_mem_read(0x100, 8)
        p.on_fn_exit("f")
        p.on_run_end()
        prof = p.profile()
        assert prof.reuse.per_fn.get(_ctx(prof, "f"), None) is None or (
            prof.reuse.per_fn[_ctx(prof, "f")].reused_windows == 0
        )

    def test_new_call_opens_new_window(self):
        """Windows are per call: two calls each re-reading yield two
        windows with their own lifetimes."""
        p = _profiler()
        p.on_run_begin()
        p.on_fn_enter("w")
        p.on_mem_write(0x100, 8)
        p.on_fn_exit("w")
        for _ in range(2):
            p.on_fn_enter("f")
            p.on_mem_read(0x100, 8)
            p.on_mem_read(0x100, 8)
            p.on_fn_exit("f")
        p.on_run_end()
        prof = p.profile()
        stats = prof.reuse.per_fn[_ctx(prof, "f")]
        assert stats.reused_windows == 16  # 8 bytes x 2 call windows

    def test_histogram_binning(self):
        """Figures 10/11: windows land in bin lifetime // 1000."""
        p = _profiler()
        from repro.trace.events import OpKind

        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_mem_write(0x100, 1)
        p.on_mem_read(0x100, 1)
        p.on_op(OpKind.FLOAT, 2500)
        p.on_mem_read(0x100, 1)
        p.on_fn_exit("f")
        p.on_run_end()
        prof = p.profile()
        hist = prof.reuse.fn_histogram(_ctx(prof, "f"))
        assert hist == [(2000, 1)]


class TestReuseStatsUnit:
    def test_end_of_run_groups_windows_by_context(self):
        """Windows still open at the end of the run close into their own
        reading context's statistics; a zero lifetime is no re-use."""
        prof = _run_open_windows([("f", 1490), ("f", 2490), ("g", 0)], 1000)
        stats = prof.reuse.per_fn[_ctx(prof, "f")]
        assert stats.reused_windows == 2
        assert stats.lifetime_sum == (1490 + 2490)
        assert _ctx(prof, "g") not in prof.reuse.per_fn  # lifetime 0 -> not reused

    def test_end_of_run_bins_beyond_24_bits(self):
        """Regression: grouping once packed keys as (ctx << 24) | bin, so a
        lifetime bin >= 2**24 (a long run with a small bin_size) bled into
        the context part and corrupted a *different* function's histogram.
        Boundary bins must land in the right function at the right bin."""
        big = 1 << 24  # first colliding bin under the old packing
        prof = _run_open_windows([("f", big - 1), ("f", big + 1), ("g", big)], 1)
        f = prof.reuse.per_fn[_ctx(prof, "f")]
        g = prof.reuse.per_fn[_ctx(prof, "g")]
        assert f.reused_windows == 2
        assert f.lifetime_sum == (big - 1) + (big + 1)
        assert f.histogram == {big - 1: 1, big + 1: 1}
        assert g.reused_windows == 1
        assert g.histogram == {big: 1}
        # Under the old packing, ctx=1 with bin=2**24 aliased to ctx=2 bin=0.
        assert 0 not in g.histogram
        assert len(prof.reuse.per_fn) == 2

    def test_end_of_run_cross_context_no_collision(self):
        """(ctx=0, bin=2**24) and (ctx=1, bin=0) were one key under the old
        packing; they must stay distinct groups."""
        prof = _run_open_windows([("f", 1 << 24), ("g", 3)], 1)
        assert prof.reuse.per_fn[_ctx(prof, "f")].histogram == {1 << 24: 1}
        assert prof.reuse.per_fn[_ctx(prof, "g")].histogram == {3: 1}

    def test_fifo_eviction_preserves_reuse_totals(self):
        """Evicting shadow pages must not lose already-observed re-use:
        only producer tracking degrades (paper: negligible loss)."""
        limited = SigilProfiler(SigilConfig(reuse_mode=True, max_shadow_pages=2))
        unlimited = SigilProfiler(SigilConfig(reuse_mode=True))
        for p in (limited, unlimited):
            p.on_run_begin()
            p.on_fn_enter("f")
            for page in range(6):
                addr = 0x10000 + page * 4096
                p.on_mem_write(addr, 8)
                p.on_mem_read(addr, 8)
                p.on_mem_read(addr, 8)
            p.on_fn_exit("f")
            p.on_run_end()
        lb = limited.profile().reuse.byte_breakdown()
        ub = unlimited.profile().reuse.byte_breakdown()
        assert lb == ub
