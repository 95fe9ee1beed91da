"""Batch-boundary semantics of the batched trace transport.

These tests pin down the ordering contract: a batch is a faithful reordering
of scalar observer calls whose *classification* is order-insensitive, and
every event that could observe intermediate state (function boundaries,
thread switches, branches, syscalls) forces a flush first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.callgrind.collector import CallgrindCollector
from repro.core import SigilConfig, SigilProfiler
from repro.core.shadow import SHADOW_PAGE_SIZE
from repro.io.profilefile import dumps_profile
from repro.trace.batch import (
    DEFAULT_BATCH_SIZE,
    SCALAR_FLUSH_CUTOFF,
    BatchingTransport,
)
from repro.trace.events import OpKind
from repro.trace.observer import (
    MEM_READ,
    MEM_WRITE,
    BaseObserver,
    ObserverPipe,
    RecordingObserver,
    replay,
)


def _profile_text(drive, batch_size):
    profiler = SigilProfiler(SigilConfig())
    # scalar_cutoff=0: these tests pin the transport's ordering and strict
    # flushes, so even tiny flushes must go through on_mem_batch (which
    # replays the batch into the profiler's scalar kernel, in order).
    observer = (
        BatchingTransport(profiler, batch_size, scalar_cutoff=0)
        if batch_size
        else profiler
    )
    observer.on_run_begin()
    observer.on_fn_enter("main")
    drive(observer)
    observer.on_fn_exit("main")
    observer.on_run_end()
    return dumps_profile(profiler.profile())


class TestIntraBatchOrdering:
    def test_write_then_read_same_byte_one_batch(self):
        """W->R of one byte inside a single batch classifies exactly like
        the scalar path: a unique self-read of the fresh value."""

        def drive(obs):
            obs.on_mem_write(10, 1)
            obs.on_mem_read(10, 1)

        assert _profile_text(drive, 64) == _profile_text(drive, 0)

    def test_read_then_write_same_byte_one_batch(self):
        """R->W must *not* look like a read of the new value."""

        def drive(obs):
            obs.on_mem_read(10, 1)
            obs.on_mem_write(10, 1)
            obs.on_mem_read(10, 1)
            obs.on_mem_write(10, 1)

        assert _profile_text(drive, 64) == _profile_text(drive, 0)

    def test_alternating_rw_runs_same_unit(self):
        def drive(obs):
            for _ in range(5):
                obs.on_mem_read(3, 2)
                obs.on_mem_read(3, 2)
                obs.on_mem_write(4, 1)
                obs.on_mem_read(2, 4)

        for batch_size in (1, 2, 3, 64):
            assert _profile_text(drive, batch_size) == _profile_text(drive, 0)

    def test_page_straddling_accesses(self):
        """Accesses spanning the shadow-page boundary split and classify
        identically whether delivered scalar or batched."""
        edge = SHADOW_PAGE_SIZE - 3

        def drive(obs):
            obs.on_mem_write(edge, 8)
            obs.on_mem_read(edge, 8)
            obs.on_mem_write(2 * SHADOW_PAGE_SIZE - 1, 2)
            obs.on_mem_read(2 * SHADOW_PAGE_SIZE - 4, 16)

        for batch_size in (1, 3, 64):
            assert _profile_text(drive, batch_size) == _profile_text(drive, 0)


class TestFlushBoundaries:
    def _transport(self, batch_size=DEFAULT_BATCH_SIZE):
        rec = RecordingObserver()
        return BatchingTransport(rec, batch_size), rec

    def test_fn_exit_flushes_mid_buffer(self):
        """Accesses buffered inside a call must land before its exit."""
        transport, rec = self._transport()
        transport.on_fn_enter("f")
        transport.on_mem_write(1, 4)
        transport.on_mem_read(1, 4)
        transport.on_fn_exit("f")
        kinds = [type(e).__name__ for e in rec.events]
        assert kinds == ["FnEnter", "MemWrite", "MemRead", "FnExit"]

    def test_thread_switch_flushes_mid_buffer(self):
        transport, rec = self._transport()
        transport.on_mem_write(1, 1)
        transport.on_thread_switch(1)
        transport.on_mem_read(1, 1)
        transport.flush()
        kinds = [type(e).__name__ for e in rec.events]
        assert kinds == ["MemWrite", "ThreadSwitch", "MemRead"]

    def test_branch_and_syscall_flush(self):
        transport, rec = self._transport()
        transport.on_mem_write(1, 1)
        transport.on_branch(7, True)
        transport.on_mem_read(1, 1)
        transport.on_syscall_enter("read", 64)
        transport.on_syscall_exit("read", 64)
        kinds = [type(e).__name__ for e in rec.events]
        assert kinds == [
            "MemWrite", "Branch", "MemRead", "SyscallEnter", "SyscallExit",
        ]

    def test_run_end_drains_buffer(self):
        transport, rec = self._transport()
        transport.on_mem_write(1, 1)
        transport.on_run_end()
        assert [type(e).__name__ for e in rec.events] == ["MemWrite"]

    def test_op_does_not_flush_lenient_downstream(self):
        """Ops overtake buffered accesses for time-insensitive observers --
        the whole point of the transport."""

        class Lenient(BaseObserver):
            batch_time_strict = False

            def __init__(self):
                self.order = []

            def on_op(self, kind, count):
                self.order.append("op")

            def on_mem_batch(self, addrs, sizes, kinds):
                self.order.append(f"batch{len(addrs)}")

        obs = Lenient()
        transport = BatchingTransport(obs, 64, scalar_cutoff=0)
        transport.on_mem_write(1, 1)
        transport.on_op(OpKind.INT, 1)
        transport.on_mem_read(1, 1)
        transport.flush()
        assert obs.order == ["op", "batch2"]

    def test_short_flushes_replay_as_scalar_calls(self):
        """Below the occupancy cutoff the flush replays scalar calls --
        tiny batches cost more through the array kernels than they save."""

        class Both(BaseObserver):
            def __init__(self):
                self.calls = []

            def on_mem_read(self, addr, size):
                self.calls.append(("read", addr, size))

            def on_mem_write(self, addr, size):
                self.calls.append(("write", addr, size))

            def on_mem_batch(self, addrs, sizes, kinds):
                self.calls.append(("batch", len(addrs)))

        obs = Both()
        transport = BatchingTransport(obs, 64)  # default cutoff
        transport.on_mem_write(1, 4)
        transport.on_mem_read(2, 8)
        transport.flush()
        assert obs.calls == [("write", 1, 4), ("read", 2, 8)]
        assert transport.flushes == 1 and transport.batched_accesses == 2

        obs.calls.clear()
        for i in range(SCALAR_FLUSH_CUTOFF):
            transport.on_mem_read(i, 1)
        transport.flush()
        assert obs.calls == [("batch", SCALAR_FLUSH_CUTOFF)]

    def test_op_flushes_strict_downstream(self):
        """RecordingObserver demands exact scalar order (it is the ordering
        oracle), so ops must not overtake its buffered accesses."""
        transport, rec = self._transport()
        assert transport.strict_time
        transport.on_mem_write(1, 1)
        transport.on_op(OpKind.INT, 2)
        transport.on_mem_read(1, 1)
        transport.flush()
        assert [type(e).__name__ for e in rec.events] == [
            "MemWrite", "Op", "MemRead",
        ]

    def test_buffer_full_flushes(self):
        transport, rec = self._transport(batch_size=2)
        for i in range(5):
            transport.on_mem_write(i, 1)
        assert transport.flushes == 2
        writes = lambda: [e for e in rec.events if type(e).__name__ == "MemWrite"]
        assert len(writes()) == 4
        transport.flush()
        assert len(writes()) == 5

    def test_counters_and_occupancy(self):
        transport, _ = self._transport(batch_size=4)
        for i in range(6):
            transport.on_mem_read(i, 1)
        transport.flush()
        assert transport.batched_accesses == 6
        assert transport.flushes == 2
        assert transport.mean_occupancy == pytest.approx(3.0)

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError):
            BatchingTransport(RecordingObserver(), 0)
        with pytest.raises(ValueError):
            BatchingTransport(RecordingObserver(), -1)


class _LenientBranchObserver(BaseObserver):
    """Lenient downstream that accepts both mem and branch batches."""

    batch_time_strict = False

    def __init__(self):
        self.order = []

    def on_op(self, kind, count):
        self.order.append("op")

    def on_branch(self, site, taken):
        self.order.append(("branch", site, taken))

    def on_branch_batch(self, sites, takens):
        self.order.append(("branches", sites.tolist(), takens.tolist()))

    def on_mem_batch(self, addrs, sizes, kinds):
        self.order.append(("mem", len(addrs)))


class TestLenientBranchBuffering:
    def test_branches_buffered_and_delivered_after_mem(self):
        """For lenient downstreams branches do not flush the access buffer;
        at a boundary the mem batch lands first, then one branch batch."""
        obs = _LenientBranchObserver()
        transport = BatchingTransport(obs, 64, scalar_cutoff=0)
        transport.on_mem_write(1, 1)
        transport.on_branch(7, True)
        transport.on_mem_read(1, 1)
        transport.on_branch(7, False)
        transport.on_fn_exit("f")  # boundary: drains both buffers
        assert obs.order == [
            ("mem", 2),
            ("branches", [7, 7], [True, False]),
        ]
        assert transport.batched_branches == 2

    def test_ops_overtake_buffered_branches(self):
        """Ops forward immediately; deferred branches are sums for lenient
        tools, so the reordering is observable only as batching."""
        obs = _LenientBranchObserver()
        transport = BatchingTransport(obs, 64, scalar_cutoff=0)
        transport.on_branch(3, True)
        transport.on_op(OpKind.INT, 1)
        transport.flush()
        assert obs.order == ["op", ("branches", [3], [True])]

    def test_branch_buffer_full_flushes(self):
        obs = _LenientBranchObserver()
        transport = BatchingTransport(obs, 2, scalar_cutoff=0)
        for i in range(5):
            transport.on_branch(i, bool(i % 2))
        assert obs.order == [
            ("branches", [0, 1], [False, True]),
            ("branches", [2, 3], [False, True]),
        ]
        transport.flush()
        assert obs.order[-1] == ("branches", [4], [False])

    def test_short_branch_flushes_replay_as_scalar(self):
        """Below the cutoff branches replay as scalar on_branch calls with
        plain bools, preserving intra-stream order."""
        obs = _LenientBranchObserver()
        transport = BatchingTransport(obs, 64)  # default cutoff
        transport.on_branch(1, True)
        transport.on_branch(2, False)
        transport.flush()
        assert obs.order == [("branch", 1, True), ("branch", 2, False)]

    def test_default_expansion_for_hookless_lenient_observer(self):
        """A lenient observer without its own on_branch_batch gets the
        BaseObserver expansion: scalar on_branch calls, plain bools."""

        class NoHook(BaseObserver):
            batch_time_strict = False

            def __init__(self):
                self.calls = []

            def on_branch(self, site, taken):
                assert isinstance(taken, bool)
                self.calls.append((site, taken))

        obs = NoHook()
        transport = BatchingTransport(obs, 64, scalar_cutoff=0)
        for site, taken in [(0, True), (1, False), (0, True)]:
            transport.on_branch(site, taken)
        transport.flush()
        assert obs.calls == [(0, True), (1, False), (0, True)]

    def test_strict_downstream_never_sees_branch_batches(self):
        """Strict downstreams (the ordering oracle) keep exact scalar
        interleaving: branch arrives after the flushed accesses."""
        rec = RecordingObserver()
        transport = BatchingTransport(rec, 64, scalar_cutoff=0)
        transport.on_mem_write(1, 1)
        transport.on_branch(9, True)
        kinds = [type(e).__name__ for e in rec.events]
        assert kinds == ["MemWrite", "Branch"]
        assert transport.batched_branches == 0


class TestObserverPipeMixing:
    def test_pipe_mixes_batch_aware_and_scalar_observers(self):
        """A scalar-only observer in a pipe sees the batch expanded in the
        exact order RecordingObserver (the oracle) records it."""

        class ScalarOnly:
            """Deliberately not a BaseObserver: no on_mem_batch at all."""

            def __init__(self):
                self.calls = []

            def on_run_begin(self): ...
            def on_run_end(self): ...
            def on_fn_enter(self, name): self.calls.append(("enter", name))
            def on_fn_exit(self, name): self.calls.append(("exit", name))
            def on_op(self, kind, count): ...
            def on_branch(self, site, taken): ...
            def on_syscall_enter(self, name, nbytes): ...
            def on_syscall_exit(self, name, nbytes): ...
            def on_thread_switch(self, tid): ...
            def on_mem_read(self, addr, size):
                self.calls.append(("read", addr, size))
            def on_mem_write(self, addr, size):
                self.calls.append(("write", addr, size))

        scalar = ScalarOnly()
        oracle = RecordingObserver()
        pipe = ObserverPipe([scalar, oracle])
        # scalar_cutoff=0 so the pipe really receives a batch to expand.
        transport = BatchingTransport(pipe, 64, scalar_cutoff=0)
        transport.on_fn_enter("f")
        transport.on_mem_write(4, 2)
        transport.on_mem_read(4, 2)
        transport.on_mem_read(9, 1)
        transport.on_fn_exit("f")

        expected = []
        for event in oracle.events:
            name = type(event).__name__
            if name == "MemRead":
                expected.append(("read", event.addr, event.size))
            elif name == "MemWrite":
                expected.append(("write", event.addr, event.size))
            elif name == "FnEnter":
                expected.append(("enter", event.name))
            elif name == "FnExit":
                expected.append(("exit", event.name))
        assert scalar.calls == expected

    def test_batch_beneficial_advertisement(self):
        """Sigil replays every batch through its scalar kernel, so no config
        gains from batching; a pipe benefits if any member has a batch
        kernel (Callgrind)."""
        for config in (
            SigilConfig(),
            SigilConfig(reuse_mode=True),
            SigilConfig(event_mode=True),
            SigilConfig(max_shadow_pages=1),
        ):
            sigil = SigilProfiler(config)
            assert not sigil.batch_beneficial, config
            assert not ObserverPipe([sigil]).batch_beneficial, config
            assert ObserverPipe(
                [sigil, CallgrindCollector()]
            ).batch_beneficial, config

    def test_pipe_is_strict_if_any_member_is(self):
        lenient = SigilProfiler(SigilConfig())  # baseline: not strict
        strict = SigilProfiler(SigilConfig(reuse_mode=True))
        assert not ObserverPipe([lenient]).batch_time_strict
        assert ObserverPipe([lenient, strict]).batch_time_strict
        assert ObserverPipe([lenient, RecordingObserver()]).batch_time_strict

    def test_pipe_profilers_match_scalar(self):
        """Two profilers sharing one pipe under one transport both match
        their scalar twins."""
        a = SigilProfiler(SigilConfig())
        b = SigilProfiler(SigilConfig(line_size=4))
        transport = BatchingTransport(ObserverPipe([a, b]), 8)

        sa = SigilProfiler(SigilConfig())
        sb = SigilProfiler(SigilConfig(line_size=4))

        for obs in (transport, ObserverPipe([sa, sb])):
            obs.on_run_begin()
            obs.on_fn_enter("main")
            for i in range(30):
                obs.on_mem_write(i * 3, 4)
                obs.on_mem_read(i * 3 + 1, 2)
            obs.on_fn_exit("main")
            obs.on_run_end()

        assert dumps_profile(a.profile()) == dumps_profile(sa.profile())
        assert dumps_profile(b.profile()) == dumps_profile(sb.profile())


class TestReplayBatching:
    def test_replay_batch_size_matches_scalar(self):
        rec = RecordingObserver()
        rec.on_run_begin()
        rec.on_fn_enter("main")
        for i in range(50):
            rec.on_mem_write(i, 2)
            rec.on_mem_read(i, 2)
            if i % 7 == 0:
                rec.on_branch(1, True)
        rec.on_fn_exit("main")
        rec.on_run_end()

        scalar = SigilProfiler(SigilConfig())
        replay(rec.events, scalar)
        for batch_size in (1, 4, 4096):
            batched = SigilProfiler(SigilConfig())
            replay(rec.events, batched, batch_size=batch_size)
            assert dumps_profile(batched.profile()) == dumps_profile(
                scalar.profile()
            )

    def test_batch_passthrough_preserves_order(self):
        """on_mem_batch into a transport flushes its own buffer first."""
        transport, rec = self._mk()
        transport.on_mem_write(1, 1)
        transport.on_mem_batch(
            np.array([2, 3]), np.array([1, 1]),
            np.array([MEM_READ, MEM_WRITE], dtype=np.uint8),
        )
        transport.flush()
        got = [(type(e).__name__, e.addr) for e in rec.events]
        assert got == [("MemWrite", 1), ("MemRead", 2), ("MemWrite", 3)]

    @staticmethod
    def _mk():
        rec = RecordingObserver()
        return BatchingTransport(rec, 64), rec
