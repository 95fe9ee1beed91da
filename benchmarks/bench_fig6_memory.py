"""Figure 6: memory usage for baseline function-level profiling.

Paper: "Figure 6 shows the memory usage of Sigil for workloads as we
increase the datasize.  The memory increase also remains consistent for
increased datasize.  facesim and raytrace are intensive benchmarks that use
larger amounts of memory."  We report the shadow-memory footprint (the
component Sigil adds over Callgrind) at simsmall and simmedium, in the
paper's per-byte model: ``shadow_bytes`` is live pages x 4,096 units x the
record size, one shadow object per unit.  The profiler's pages store one
record per run of identical objects, so the bytes it actually holds are
smaller (``sigil.shadow.live_runs`` counts the runs); that is not Figure
6's quantity.
"""

from __future__ import annotations

from _support import OVERHEAD_SUITE, save_artifact, timed_sigil
from repro.analysis import render_table
from repro.core import SigilConfig, SigilProfiler
from repro.workloads import get_workload


def _shadow_kb(name: str, size: str) -> int:
    _, run = timed_sigil(name, size)
    return run.sigil.shadow_stats.shadow_bytes // 1024


def test_fig6_memory_usage(benchmark):
    def facesim_profile():
        profiler = SigilProfiler(SigilConfig())
        get_workload("facesim", "simsmall").run(profiler)
        return profiler.shadow.shadow_bytes

    benchmark.pedantic(facesim_profile, rounds=3, iterations=1)

    rows = []
    footprints = {}
    for name in OVERHEAD_SUITE:
        small = _shadow_kb(name, "simsmall")
        medium = _shadow_kb(name, "simmedium")
        footprints[name] = (small, medium)
        rows.append((name, small, medium, f"{medium / max(small, 1):.2f}x"))
    table = render_table(
        ["benchmark", "simsmall_KB", "simmedium_KB", "growth"],
        rows,
        title="Figure 6: Sigil shadow-memory footprint by input size",
    )
    save_artifact("fig6_memory.txt", table)

    # Shape checks: facesim and raytrace are the memory-intensive outliers,
    # and footprints grow (weakly) with input size.
    others = [
        footprints[n][0] for n in OVERHEAD_SUITE if n not in ("facesim", "raytrace")
    ]
    assert footprints["facesim"][0] > max(others)
    assert footprints["raytrace"][0] >= sorted(others)[len(others) // 2]
    for name, (small, medium) in footprints.items():
        assert medium >= small, name


def test_fig6_reuse_mode_overhead(benchmark):
    """Section III-A: 'With data-re-use monitoring enabled, Sigil's memory
    usage is up to 2 times larger'."""
    base = SigilProfiler(SigilConfig())
    get_workload("vips", "simsmall").run(base)

    def reuse_profile():
        profiler = SigilProfiler(SigilConfig(reuse_mode=True))
        get_workload("vips", "simsmall").run(profiler)
        return profiler

    reuse = benchmark.pedantic(reuse_profile, rounds=3, iterations=1)
    ratio = reuse.shadow.shadow_bytes / base.shadow.shadow_bytes
    assert 1.5 < ratio <= 2.5
