"""The zero-cost guarantee: null telemetry adds nothing to the hot path."""

from __future__ import annotations

import gc
import sys

from repro.core.config import SigilConfig
from repro.core.profiler import SigilProfiler
from repro.harness import _assemble_observer, profile_workload
from repro.telemetry import NULL_TELEMETRY, EventCounter, NullTelemetry, Telemetry
from repro.trace.observer import NullObserver, ObserverPipe


class TestNullTelemetrySingletons:
    def test_accessors_share_one_null_metric(self):
        tel = NULL_TELEMETRY
        assert tel.counter("a") is tel.counter("b")
        assert tel.counter("a") is tel.gauge("c") is tel.histogram("d")

    def test_phase_is_a_shared_noop_context_manager(self):
        tel = NULL_TELEMETRY
        assert tel.phase("x") is tel.phase("y")
        with tel.phase("x"):
            pass  # must be usable as a context manager

    def test_null_metric_absorbs_all_operations(self):
        metric = NULL_TELEMETRY.counter("anything")
        metric.inc(10)
        metric.set(5)
        metric.set_max(7)
        metric.observe(3)
        assert metric.value == 0
        assert metric.summary() == {}

    def test_disabled_flags_and_empty_snapshot(self):
        tel = NullTelemetry()
        assert tel.enabled is False
        assert tel.make_heartbeat("x") is None
        assert tel.snapshot() == {"phases": {}, "metrics": {}}
        tel.record_process_stats()  # no-op, must not raise


class TestObserverAssembly:
    def test_lone_tool_attaches_directly_with_null_telemetry(self):
        profiler = SigilProfiler(SigilConfig())
        observer, counter = _assemble_observer([profiler], NULL_TELEMETRY, "x")
        assert observer is profiler
        assert counter is None

    def test_no_tools_yield_null_observer(self):
        observer, counter = _assemble_observer([], NULL_TELEMETRY, "x")
        assert isinstance(observer, NullObserver)
        assert counter is None

    def test_enabled_telemetry_adds_event_counter_to_pipe(self):
        profiler = SigilProfiler(SigilConfig())
        observer, counter = _assemble_observer([profiler], Telemetry(), "x")
        assert isinstance(observer, ObserverPipe)
        assert isinstance(counter, EventCounter)

    def test_null_dispatch_adds_zero_python_calls_per_event(self):
        """The acceptance bar: --no-telemetry means the observer fan-out
        dispatches exactly as many Python-level calls as the seed code."""

        def drive(observer):
            observer.on_fn_enter("f")
            for i in range(50):
                observer.on_mem_write(0x1000 + i, 4)
                observer.on_mem_read(0x1000 + i, 4)
            observer.on_fn_exit("f")

        def count_calls(observer):
            calls = 0

            def tracer(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            # A garbage collection inside the window would run finalizers
            # of unrelated objects (left by earlier tests) as Python calls
            # on this thread, so the count would depend on allocation
            # timing rather than on the dispatch path.
            gc.disable()
            sys.setprofile(tracer)
            try:
                drive(observer)
            finally:
                sys.setprofile(None)
                gc.enable()
            return calls

        raw = SigilProfiler(SigilConfig())
        baseline = count_calls(raw)

        assembled, _ = _assemble_observer(
            [SigilProfiler(SigilConfig())], NULL_TELEMETRY, "x"
        )
        assert count_calls(assembled) == baseline


class TestManifestProduction:
    def test_default_run_has_no_manifest(self):
        run = profile_workload("blackscholes", "simsmall")
        assert run.manifest is None

    def test_telemetry_run_produces_complete_manifest(self):
        run = profile_workload(
            "blackscholes", "simsmall", telemetry=Telemetry()
        )
        m = run.manifest
        assert m is not None
        for phase in ("setup", "execute", "aggregate"):
            assert m.phase_seconds(phase) >= 0
        assert m.phase_seconds("execute") > 0
        assert m.events_total > 0
        assert m.events_per_sec > 0
        assert m.metric("events.total") == m.events_total
        assert m.metric("sigil.shadow.peak_shadow_bytes") > 0
        assert m.metric("sigil.bytes.unique") > 0
        assert m.metric("sigil.bytes.nonunique") > 0
        assert m.metric("process.peak_rss_bytes") > 0
        assert m.metric("vm.instructions_retired", default=None) is None  # synthetic workloads bypass the VM
        assert m.config_hash

    def test_phase_split_sums_to_wall_seconds(self):
        run = profile_workload("blackscholes", "simsmall")
        assert run.wall_seconds == (
            run.setup_seconds + run.execute_seconds + run.aggregate_seconds
        )
        assert run.execute_seconds > 0
