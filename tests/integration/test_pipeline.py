"""End-to-end integration tests: workload -> profile -> every analysis."""

from __future__ import annotations

import pytest

from repro import (
    InputSize,
    SigilConfig,
    line_reuse_run,
    native_seconds,
    profile_workload,
)
from repro.analysis import (
    CDFG,
    analyze_critical_path,
    byte_reuse_breakdown,
    coverage_report,
    top_reuse_functions,
    trim_calltree,
)
from repro.io import dumps_events, dumps_profile, loads_events, loads_profile


class TestHarness:
    def test_profile_workload_returns_everything(self):
        run = profile_workload(
            "blackscholes", "simsmall",
            config=SigilConfig(reuse_mode=True, event_mode=True),
        )
        assert run.name == "blackscholes"
        assert run.size == InputSize.SIMSMALL
        assert run.sigil is not None and run.callgrind is not None
        assert run.wall_seconds > 0

    def test_sigil_only(self):
        run = profile_workload("vips", "simsmall", with_callgrind=False)
        assert run.callgrind is None
        assert run.sigil is not None

    def test_callgrind_only(self):
        run = profile_workload("vips", "simsmall", with_sigil=False)
        assert run.sigil is None
        assert run.callgrind is not None

    @pytest.mark.parametrize("with_callgrind,expect_transport", [
        (False, False), (True, True),
    ], ids=["sigil-only", "sigil+callgrind"])
    def test_transport_built_only_for_batch_kernels(
        self, monkeypatch, with_callgrind, expect_transport
    ):
        """Sigil replays batches through its scalar kernel, so a Sigil-only
        run skips the transport; Callgrind's batch kernel brings it back."""
        import repro.harness as harness

        built = []
        real = harness.BatchingTransport

        def recording(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "BatchingTransport", recording)
        run = profile_workload(
            "blackscholes", "simsmall",
            config=SigilConfig(reuse_mode=True, event_mode=True),
            with_callgrind=with_callgrind,
        )
        assert run.sigil is not None
        assert bool(built) == expect_transport

    def test_native_seconds(self):
        assert native_seconds("streamcluster", "simsmall") > 0

    def test_line_reuse_run(self):
        profiler = line_reuse_run("freqmine", "simsmall")
        assert profiler.n_lines > 0
        breakdown = profiler.reuse_breakdown()
        assert sum(breakdown.values()) == profiler.n_lines


class TestToolAgreement:
    """Sigil and the Callgrind-equivalent observe the same run: totals on
    shared metrics must agree exactly."""

    @pytest.mark.parametrize("name", ["blackscholes", "dedup", "vips"])
    def test_ops_and_traffic_agree(self, name):
        run = profile_workload(name, "simsmall")
        sigil, cg = run.sigil, run.callgrind
        sigil_iops = sum(fc.iops for fc in sigil.functions.values())
        sigil_flops = sum(fc.flops for fc in sigil.functions.values())
        cg_inc = cg.inclusive_costs(cg.tree.root)
        assert sigil_iops == cg_inc.iops
        assert sigil_flops == cg_inc.flops
        sigil_read = sum(fc.read_bytes for fc in sigil.functions.values())
        assert sigil_read == cg_inc.read_bytes

    def test_context_trees_align(self):
        run = profile_workload("canneal", "simsmall")
        for node in run.sigil.contexts():
            if node.name.startswith("sys:"):
                continue  # syscall pseudo-nodes exist only on the Sigil side
            assert run.callgrind.tree.find(node.path) is not None, node.path


class TestOfflineAnalysis:
    """The paper's release model: run once, post-process the files forever."""

    def test_full_roundtrip_analysis(self, tmp_path):
        run = profile_workload(
            "streamcluster", "simsmall",
            config=SigilConfig(reuse_mode=True, event_mode=True),
        )
        profile_text = dumps_profile(run.sigil)
        events_text = dumps_events(run.sigil.events)

        prof = loads_profile(profile_text)
        events = loads_events(events_text)

        cdfg = CDFG(prof)
        assert cdfg.data_edges()
        result = analyze_critical_path(events)
        live = analyze_critical_path(run.sigil.events)
        assert result.max_parallelism == pytest.approx(live.max_parallelism)
        breakdown = byte_reuse_breakdown(prof)
        assert breakdown == byte_reuse_breakdown(run.sigil)

    def test_determinism_across_runs(self):
        """Two runs of the same workload produce identical profiles --
        'the profiles will remain the same despite the platform'."""
        cfg = SigilConfig(reuse_mode=True, event_mode=True)
        a = profile_workload("x264", "simsmall", config=cfg)
        b = profile_workload("x264", "simsmall", config=cfg)
        assert dumps_profile(a.sigil) == dumps_profile(b.sigil)
        assert dumps_events(a.sigil.events) == dumps_events(b.sigil.events)


class TestMemoryLimitAccuracy:
    """Section III-A: dedup runs with the FIFO memory limit; 'we found the
    corresponding loss of accuracy to be negligible'."""

    def test_dedup_limited_vs_unlimited(self):
        full = profile_workload("dedup", "simsmall", config=SigilConfig(reuse_mode=True))
        limited = profile_workload(
            "dedup", "simsmall",
            config=SigilConfig(reuse_mode=True, max_shadow_pages=8),
        )
        assert limited.sigil.shadow_stats.pages_evicted > 0
        assert limited.sigil.shadow_stats.live_pages <= 8

        def total_unique(prof):
            return sum(e.unique_bytes for _, e in prof.comm.items())

        full_u = total_unique(full.sigil)
        lim_u = total_unique(limited.sigil)
        # Eviction only loses producer identity; totals stay within a few
        # percent (reads of evicted bytes become program-input uniques).
        assert abs(full_u - lim_u) / full_u < 0.10

    def test_limited_run_bounds_footprint(self):
        limited = profile_workload(
            "dedup", "simmedium",
            config=SigilConfig(reuse_mode=True, max_shadow_pages=8),
        )
        full = profile_workload("dedup", "simmedium", config=SigilConfig(reuse_mode=True))
        assert (
            limited.sigil.shadow_stats.shadow_bytes
            < full.sigil.shadow_stats.shadow_bytes
        )


class TestPartitioningPipeline:
    def test_coverage_report_for_parsec(self):
        run = profile_workload("fluidanimate", "simsmall")
        trimmed = trim_calltree(run.sigil, run.callgrind)
        report = coverage_report("fluidanimate", trimmed)
        assert 0.5 < report.coverage <= 1.0
        assert report.n_candidates >= 1
        assert report.uncovered == pytest.approx(1.0 - report.coverage)

    def test_reuse_rankings_for_vips(self, vips_profile):
        rankings = top_reuse_functions(vips_profile, n=5)
        assert rankings
        assert all(r.average_lifetime > 0 for r in rankings)
