"""Profiler mode interactions: line granularity, combined modes, timing."""

from __future__ import annotations

import pytest

from repro.core import SigilConfig, SigilProfiler
from repro.trace.events import OpKind


class TestLineGranularProfiler:
    """SigilConfig(line_size=N): the full methodology at block granularity
    ("In this mode, Sigil shadows every line in memory rather than every
    byte")."""

    def test_partial_line_charges_whole_line(self):
        p = SigilProfiler(SigilConfig(line_size=64))
        p.on_run_begin()
        p.on_fn_enter("w")
        p.on_mem_write(0, 1)       # touches line 0
        p.on_fn_exit("w")
        p.on_fn_enter("r")
        p.on_mem_read(8, 1)        # same line, different byte
        p.on_fn_exit("r")
        p.on_run_end()
        prof = p.profile()
        w = prof.contexts_named("w")[0].id
        r = prof.contexts_named("r")[0].id
        assert prof.comm.get(w, r).unique_bytes == 64

    def test_straddling_access_charges_both_lines(self):
        p = SigilProfiler(SigilConfig(line_size=64))
        p.on_run_begin()
        p.on_fn_enter("w")
        p.on_mem_write(60, 8)
        p.on_fn_exit("w")
        p.on_fn_enter("r")
        p.on_mem_read(60, 8)
        p.on_fn_exit("r")
        p.on_run_end()
        prof = p.profile()
        w = prof.contexts_named("w")[0].id
        r = prof.contexts_named("r")[0].id
        assert prof.comm.get(w, r).unique_bytes == 128

    def test_raw_byte_totals_unscaled(self):
        """read_bytes stays the program's true traffic even in line mode."""
        p = SigilProfiler(SigilConfig(line_size=64))
        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_mem_read(0, 8)
        p.on_fn_exit("f")
        p.on_run_end()
        prof = p.profile()
        f = prof.contexts_named("f")[0].id
        assert prof.fn_comm(f).read_bytes == 8


class TestCombinedModes:
    def test_reuse_and_events_together(self):
        p = SigilProfiler(SigilConfig(reuse_mode=True, event_mode=True))
        p.on_run_begin()
        p.on_fn_enter("a")
        p.on_mem_write(0x10, 8)
        p.on_fn_exit("a")
        p.on_fn_enter("b")
        p.on_mem_read(0x10, 8)
        p.on_mem_read(0x10, 8)
        p.on_fn_exit("b")
        p.on_run_end()
        prof = p.profile()
        assert prof.reuse is not None and prof.events is not None
        assert prof.reuse.byte_breakdown()["1-9"] == 8
        data = prof.events.data
        assert len(data) and data["bytes"][0] == 8

    def test_one_access_adds_data_edges_in_producer_order(self):
        """A read spanning several producers adds its data edges in
        ascending producer-segment order, not address order: event-log
        bytes and critical-path tie-breaks depend on that order."""
        p = SigilProfiler(SigilConfig(reuse_mode=True, event_mode=True))
        p.on_run_begin()
        for addr in (0x18, 0x10, 0x08, 0x10):  # segments 1, 3, 5, 7
            p.on_fn_enter("w")
            p.on_mem_write(addr, 8)
            p.on_fn_exit("w")
        p.on_fn_enter("r")
        p.on_mem_read(0x08, 24)
        p.on_fn_exit("r")
        p.on_run_end()
        prof = p.profile()
        data = prof.events.data[["src", "bytes"]].tolist()
        assert data == [(1, 8), (5, 8), (7, 8)]


class TestTimeProxy:
    def test_time_counts_all_instruction_classes(self):
        p = SigilProfiler(SigilConfig())
        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_op(OpKind.INT, 10)
        p.on_op(OpKind.FLOAT, 5)
        p.on_mem_write(0, 8)   # +1
        p.on_mem_read(0, 8)    # +1
        p.on_branch(0, True)   # +1
        p.on_fn_exit("f")
        p.on_run_end()
        assert p.profile().total_time == 18

    def test_syscalls_do_not_advance_time(self):
        p = SigilProfiler(SigilConfig())
        p.on_run_begin()
        p.on_fn_enter("f")
        p.on_syscall_enter("read", 0)
        p.on_syscall_exit("read", 4096)
        p.on_fn_exit("f")
        p.on_run_end()
        assert p.profile().total_time == 0
