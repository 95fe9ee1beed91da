"""Figure 5: slowdown of Sigil relative to Callgrind (simsmall + simmedium).

Paper: "we observe an average slowdown of 8-9x and remains fairly
consistent given Sigil's ambitious goals.  dedup is an outlier which
incurred more slowdown as we enabled the memory limiting command line
option."

Both numerator and denominator are per-phase *execute* seconds from the
harness's ProfiledRun split, so the ratio compares pure tool event-path
cost, untainted by workload setup or aggregation time.  As in Figure 4, the
numerator times the byte-granular Sigil model
(:class:`repro.core.reference.ReferenceSigil`), whose per-byte shadow work
is the paper's cost structure; the ``runwise`` columns report this
repository's profiler over the same Callgrind time.
"""

from __future__ import annotations

from _support import OVERHEAD_SUITE, save_artifact, timed_byte_sigil, timed_callgrind, timed_sigil
from repro.analysis import render_barchart, render_table
from repro.core import SigilConfig, SigilProfiler
from repro.workloads import get_workload


def _ratios(name: str, size: str):
    """(byte-granular Sigil, run-wise Sigil) seconds over Callgrind's."""
    callgrind = timed_callgrind(name, size)
    runwise, _ = timed_sigil(name, size)
    return timed_byte_sigil(name, size) / callgrind, runwise / callgrind


def test_fig5_relative_slowdown(benchmark):
    def sigil_simmedium():
        profiler = SigilProfiler(SigilConfig())
        get_workload("vips", "simmedium").run(profiler)

    benchmark.pedantic(sigil_simmedium, rounds=3, iterations=1)

    rows = []
    ratios_small = []
    ratios_medium = []
    runwise_small = []
    runwise_medium = []
    for name in OVERHEAD_SUITE:
        small, runwise_s = _ratios(name, "simsmall")
        medium, runwise_m = _ratios(name, "simmedium")
        ratios_small.append(small)
        ratios_medium.append(medium)
        runwise_small.append(runwise_s)
        runwise_medium.append(runwise_m)
        rows.append((name, f"{small:.2f}x", f"{medium:.2f}x",
                     f"{runwise_s:.2f}x", f"{runwise_m:.2f}x"))
    rows.append(
        ("average",
         f"{sum(ratios_small) / len(ratios_small):.2f}x",
         f"{sum(ratios_medium) / len(ratios_medium):.2f}x",
         f"{sum(runwise_small) / len(runwise_small):.2f}x",
         f"{sum(runwise_medium) / len(runwise_medium):.2f}x")
    )
    table = render_table(
        ["benchmark", "simsmall", "simmedium", "runwise_small",
         "runwise_medium"],
        rows,
        title="Figure 5: slowdown of Sigil relative to Callgrind",
    )
    chart = render_barchart(
        {name: r for name, r in zip(OVERHEAD_SUITE, ratios_small)},
        title="(simsmall ratios)",
        fmt="{:.2f}x",
    )
    save_artifact("fig5_relative_slowdown.txt", table + "\n\n" + chart)

    # Shape: per-byte shadowing makes Sigil slower than Callgrind nearly
    # everywhere, and the average ratio is clearly above 1 at both sizes.
    assert sum(1 for r in ratios_small if r > 1.0) >= len(ratios_small) - 1
    assert sum(1 for r in ratios_medium if r > 1.0) >= len(ratios_medium) - 2
    assert sum(ratios_small) / len(ratios_small) > 1.3
    assert sum(ratios_medium) / len(ratios_medium) > 1.3
