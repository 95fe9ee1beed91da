"""Critical-path analysis tests (section II-C2, Figure 3, Figure 13)."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_critical_path
from repro.core import SigilConfig, SigilProfiler
from repro.trace.events import OpKind

from tests.eventlog import event_arrays


def profiler():
    return SigilProfiler(SigilConfig(event_mode=True))


class TestLongestPath:
    def test_empty_log(self):
        result = analyze_critical_path(event_arrays())
        assert result.max_parallelism == 1.0
        assert result.path.tolist() == []
        assert len(result.path_rows) == 0

    def test_serial_program_has_no_parallelism(self):
        p = profiler()
        p.on_run_begin()
        p.on_fn_enter("main")
        p.on_mem_write(0x100, 8)
        p.on_op(OpKind.INT, 50)
        p.on_fn_enter("f")
        p.on_mem_read(0x100, 8)
        p.on_op(OpKind.INT, 50)
        p.on_fn_exit("f")
        p.on_fn_exit("main")
        p.on_run_end()
        result = analyze_critical_path(p.profile().events)
        assert result.max_parallelism == pytest.approx(1.0)

    def test_independent_calls_expose_parallelism(self):
        """Non-blocking call model: calls with no data dependencies are
        limited only by the caller's sequencing."""
        p = profiler()
        p.on_run_begin()
        p.on_fn_enter("main")
        for i in range(10):
            p.on_fn_enter("work")
            p.on_op(OpKind.INT, 100)
            p.on_mem_write(0x1000 + 64 * i, 8)
            p.on_fn_exit("work")
        p.on_fn_exit("main")
        p.on_run_end()
        result = analyze_critical_path(p.profile().events)
        assert result.max_parallelism == pytest.approx(10.0)

    def test_data_dependency_serialises(self):
        """A chain through memory forces sequential execution."""
        p = profiler()
        p.on_run_begin()
        p.on_fn_enter("main")
        for i in range(10):
            p.on_fn_enter("work")
            if i:
                p.on_mem_read(0x1000 + 64 * (i - 1), 8)
            p.on_op(OpKind.INT, 100)
            p.on_mem_write(0x1000 + 64 * i, 8)
            p.on_fn_exit("work")
        p.on_fn_exit("main")
        p.on_run_end()
        result = analyze_critical_path(p.profile().events)
        assert result.max_parallelism == pytest.approx(1.0, abs=0.01)

    def test_figure_3_inclusive_costs(self):
        """Figure 3's bookkeeping: inclusive cost of a node is the longest
        chain of self-costs from the start to it."""
        p = profiler()
        p.on_run_begin()
        p.on_fn_enter("main")
        p.on_op(OpKind.INT, 16)
        p.on_fn_enter("A")
        p.on_op(OpKind.INT, 12)
        p.on_mem_write(0x100, 8)
        p.on_fn_exit("A")
        p.on_fn_enter("C")
        p.on_op(OpKind.INT, 18)
        p.on_mem_read(0x100, 8)
        p.on_fn_exit("C")
        p.on_fn_exit("main")
        p.on_run_end()
        events = p.profile().events
        result = analyze_critical_path(events)
        # C's chain: main(16) -> A(12) -> C(18) = 46 via the data edge.
        c_ctx = p.tree.find(("main", "C")).id
        c_seg = events.segs["ctx"].tolist().index(c_ctx)
        assert result.inclusive[c_seg] == 46

    def test_path_functions_leaf_to_main(self, toy_profiles):
        sigil, _ = toy_profiles
        result = analyze_critical_path(sigil.events)
        fns = result.path_functions(sigil.tree)
        assert fns[-1] == "main"
        assert len(fns) == len(set(fns))

    def test_serial_length_equals_total_ops(self, toy_profiles):
        sigil, _ = toy_profiles
        result = analyze_critical_path(sigil.events)
        assert result.serial_length == sigil.events.total_ops()

    def test_parallelism_at_least_one(self, toy_profiles):
        sigil, _ = toy_profiles
        result = analyze_critical_path(sigil.events)
        assert result.max_parallelism >= 1.0

    def test_malformed_backward_edge_rejected(self):
        log = event_arrays([(0, 0, 0, 0), (1, 1, 1, 0)], [("order", 1, 1)])
        with pytest.raises(ValueError):
            analyze_critical_path(log)


class TestPaperChains:
    def test_streamcluster_chain_matches_paper(self):
        """Section IV-C: drand48_iterate -> nrand48_r -> lrand48 ->
        pkmedian -> localSearch -> streamCluster -> main."""
        from repro.workloads import get_workload

        p = profiler()
        get_workload("streamcluster", "simsmall").run(p)
        prof = p.profile()
        result = analyze_critical_path(prof.events)
        fns = result.path_functions(prof.tree)
        for fn in ("drand48_iterate", "pkmedian", "localSearch",
                   "streamCluster", "main"):
            assert fn in fns, f"{fn} missing from critical path {fns}"
        # Leaf-to-main ordering.
        assert fns.index("drand48_iterate") < fns.index("pkmedian")
        assert fns.index("pkmedian") < fns.index("main")

    def test_fluidanimate_dominated_by_compute_forces(self):
        """Section IV-C: fluidanimate's path is composed of ComputeForces,
        ~90% of the operations in the workload."""
        from repro.workloads import get_workload

        p = profiler()
        get_workload("fluidanimate", "simsmall").run(p)
        prof = p.profile()
        result = analyze_critical_path(prof.events)
        fns = result.path_functions(prof.tree)
        assert "ComputeForces" in fns
        cf_ops = sum(
            ops for ctx, ops in zip(
                prof.events.segs["ctx"].tolist(),
                prof.events.segs["ops"].tolist(),
            )
            if prof.tree.node(ctx).name == "ComputeForces"
        )
        assert cf_ops / result.serial_length > 0.80
        assert result.max_parallelism < 2.0


class TestEventsToDot:
    def test_highlights_critical_path(self, toy_profiles):
        from repro.analysis import analyze_critical_path, events_to_dot

        sigil, _ = toy_profiles
        result = analyze_critical_path(sigil.events)
        dot = events_to_dot(sigil.events, sigil.tree, result)
        assert dot.startswith("digraph")
        assert dot.count("grey80") == len(result.path)
        assert "penwidth=2.5" in dot

    def test_truncation_keeps_path(self):
        from repro.analysis import analyze_critical_path, events_to_dot
        from repro.core import SigilConfig, SigilProfiler
        from repro.workloads import get_workload

        profiler = SigilProfiler(SigilConfig(event_mode=True))
        get_workload("streamcluster", "simsmall").run(profiler)
        prof = profiler.profile()
        result = analyze_critical_path(prof.events)
        dot = events_to_dot(prof.events, prof.tree, result, max_segments=20)
        for seg_id in result.path.tolist():
            assert f"s{seg_id} [" in dot

    def test_data_edge_weights_labelled(self, toy_profiles):
        from repro.analysis import events_to_dot

        sigil, _ = toy_profiles
        dot = events_to_dot(sigil.events, sigil.tree)
        assert 'label="8B"' in dot

    def test_labels_escape_quotes_and_backslashes(self):
        """Regression: a function name carrying ``"`` or ``\\`` (demangled
        C++, odd syscall pseudo-nodes) used to be emitted verbatim into the
        double-quoted DOT label, producing invalid Graphviz."""
        from repro.analysis import events_to_dot

        weird = 'operator""_kb\\alias'
        p = profiler()
        p.on_run_begin()
        p.on_fn_enter("main")
        p.on_fn_enter(weird)
        p.on_op(OpKind.INT, 5)
        p.on_fn_exit(weird)
        p.on_fn_exit("main")
        p.on_run_end()
        prof = p.profile()
        dot = events_to_dot(prof.events, prof.tree)
        assert 'operator\\"\\"_kb\\\\alias' in dot
        # The raw name must never appear unescaped inside a label.
        assert f'label="{weird}' not in dot
