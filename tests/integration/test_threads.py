"""Multi-threaded tracing tests: per-thread stacks, cross-thread edges."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.analysis import analyze_critical_path
from repro.analysis.threads import per_thread_ops, thread_comm_matrix
from repro.callgrind import CallgrindCollector
from repro.core import SigilConfig, SigilProfiler
from repro.io import dumps_events, dumps_events_bin, load_event_arrays
from repro.runtime import TracedRuntime, run_interleaved, traced
from repro.trace import ObserverPipe


@traced("producer")
def producer(rt, buf, start, n):
    rt.iops(2 * n)
    buf.write_block(np.arange(n, dtype=np.float64), start)


@traced("consumer")
def consumer(rt, buf, start, n):
    data = buf.read_block(start, n)
    rt.flops(3 * n)
    return float(data.sum())


def two_thread_run(profiler):
    """Thread 1 produces into a shared buffer; thread 2 consumes it."""
    rt = TracedRuntime(profiler)
    with rt.run("main"):
        shared = rt.arena.alloc_f64("shared", 64)

        def t1():
            producer(rt, shared, 0, 32)
            yield
            producer(rt, shared, 32, 32)

        def t2():
            yield  # let the producer fill the first half
            consumer(rt, shared, 0, 32)
            yield
            consumer(rt, shared, 32, 32)

        run_interleaved(rt, {1: t1(), 2: t2()})
    return rt


class TestProfilerThreads:
    def test_cross_thread_edge_classified(self):
        p = SigilProfiler(SigilConfig())
        two_thread_run(p)
        prof = p.profile()
        prod = prof.contexts_named("producer")[0]
        cons = prof.contexts_named("consumer")[0]
        edge = prof.comm.get(prod.id, cons.id)
        assert edge.unique_bytes == 64 * 8

    def test_per_thread_stacks_balanced(self):
        p = SigilProfiler(SigilConfig())
        rt = two_thread_run(p)
        assert rt.depth == 0
        assert rt.current_thread == 0

    def test_interleaved_stacks_do_not_mix(self):
        """A function open on thread 1 must not become the parent of a
        function entered on thread 2."""
        p = SigilProfiler(SigilConfig())
        rt = TracedRuntime(p)
        with rt.run("main"):
            def t1():
                with rt.frame("alpha"):
                    yield  # switch away while alpha is open

            def t2():
                with rt.frame("beta"):
                    yield

            run_interleaved(rt, {1: t1(), 2: t2()})
        prof = p.profile()
        beta = prof.contexts_named("beta")[0]
        assert beta.path == ("beta",)  # rooted at the thread root, not alpha

    def test_serial_traces_unaffected(self):
        """Thread support must be invisible for single-threaded runs."""
        from repro.io import dumps_profile
        from repro.workloads import get_workload

        a = SigilProfiler(SigilConfig(reuse_mode=True))
        get_workload("canneal", "simsmall").run(a)
        text = dumps_profile(a.profile())
        assert "thread" not in text  # no new records for serial profiles


class TestEventThreads:
    def test_segments_carry_threads(self):
        p = SigilProfiler(SigilConfig(event_mode=True))
        two_thread_run(p)
        events = p.profile().events
        threads = set(events.segs["thread"].tolist())
        assert {0, 1, 2} <= threads

    def test_thread_comm_matrix(self):
        p = SigilProfiler(SigilConfig(event_mode=True))
        two_thread_run(p)
        summary = thread_comm_matrix(p.profile().events)
        assert summary.matrix.get((1, 2)) == 64 * 8
        assert summary.cross_thread_bytes >= 64 * 8
        assert 0 < summary.sharing_fraction() <= 1.0

    def test_per_thread_ops_balance(self):
        p = SigilProfiler(SigilConfig(event_mode=True))
        two_thread_run(p)
        ops = per_thread_ops(p.profile().events)
        assert ops[1] == 2 * 32 * 2   # producer iops
        assert ops[2] == 3 * 32 * 2   # consumer flops

    def test_eventfile_roundtrips_threads(self):
        p = SigilProfiler(SigilConfig(event_mode=True))
        two_thread_run(p)
        events = p.profile().events
        loaded = load_event_arrays(io.BytesIO(dumps_events_bin(events)))
        assert loaded.segs["thread"].tolist() == events.segs["thread"].tolist()
        assert dumps_events(loaded) == dumps_events(events)

    def test_threads_expose_parallelism(self):
        """Two independent heavy threads -> parallelism near 2."""
        p = SigilProfiler(SigilConfig(event_mode=True))
        rt = TracedRuntime(p)
        with rt.run("main"):
            a = rt.arena.alloc_f64("a", 64)
            b = rt.arena.alloc_f64("b", 64)

            def worker(buf):
                producer(rt, buf, 0, 64)
                yield
                consumer(rt, buf, 0, 64)

            run_interleaved(rt, {1: worker(a), 2: worker(b)})
        result = analyze_critical_path(p.profile().events)
        assert result.max_parallelism == pytest.approx(2.0, rel=0.05)


class TestCallgrindThreads:
    def test_costs_attributed_per_thread_context(self):
        sigil = SigilProfiler(SigilConfig())
        cg = CallgrindCollector()
        pipe = ObserverPipe([sigil, cg])
        two_thread_run(pipe)
        prod = cg.tree.find(("producer",))
        cons = cg.tree.find(("consumer",))
        assert prod is not None and cons is not None
        assert cg.profile.costs_of(prod.id).iops == 2 * 32 * 2
        assert cg.profile.costs_of(cons.id).flops == 3 * 32 * 2


class TestParallelFluidanimate:
    def test_runs_and_is_deterministic(self):
        from repro.trace import NullObserver
        from repro.workloads.fluidanimate_parallel import ParallelFluidanimate

        a = ParallelFluidanimate("simsmall")
        b = ParallelFluidanimate("simsmall")
        a.run(NullObserver())
        b.run(NullObserver())
        assert a.checksum == b.checksum

    def test_ghost_exchange_creates_cross_thread_edges(self):
        from repro.workloads.fluidanimate_parallel import ParallelFluidanimate

        p = SigilProfiler(SigilConfig(event_mode=True))
        ParallelFluidanimate("simsmall").run(p)
        summary = thread_comm_matrix(p.profile().events)
        assert summary.cross_thread_bytes > 0
        assert summary.sharing_fraction() < 0.5  # mostly intra-partition

    def test_backward_data_edges_round_trip(self, tmp_path):
        """Regression: the v2 loader rejected this log's backward data
        edges, which the analyses accept."""
        from repro.workloads.fluidanimate_parallel import ParallelFluidanimate

        p = SigilProfiler(SigilConfig(event_mode=True))
        ParallelFluidanimate("simsmall").run(p)
        events = p.profile().events
        assert (events.data["src"] > events.data["dst"]).any()
        v2 = tmp_path / "fp.bin"
        v2.write_bytes(dumps_events_bin(events))
        loaded = load_event_arrays(v2)
        assert loaded == events
        assert dumps_events(loaded) == dumps_events(events)
        # The critical path still needs a topological order.
        with pytest.raises(ValueError, match="not topologically ordered"):
            analyze_critical_path(events)

    def test_balanced_stacks(self):
        from repro.workloads.fluidanimate_parallel import ParallelFluidanimate

        p = SigilProfiler(SigilConfig())
        rt = ParallelFluidanimate("simsmall").run(p)
        assert rt.depth == 0
