"""Figure 4: slowdown of Sigil and Callgrind relative to native runs.

Paper: "Figure 4 shows the function-level profiling slowdown of Sigil and
Callgrind relative to native runs without any instrumentation of the serial
version of PARSEC workloads with the 'simsmall' input."  On the authors'
Xeon the averages were ~580x (Sigil) with Callgrind far cheaper; here
"native" is the substrate with no observer, so the ratios are much smaller
but the ordering (sigil >> callgrind >> native) and the cross-workload
consistency are the reproduced shape.

Timings are the harness's per-phase *execute* seconds (ProfiledRun's phase
split): workload construction and profile aggregation are excluded, so the
slowdown ratio isolates exactly the tool's event-path cost.

The paper's slowdown comes from Sigil visiting the shadow object of every
byte an access touches.  The ``sigil`` columns therefore time the
byte-granular model (:class:`repro.core.reference.ReferenceSigil`), which
does that per-byte work; ``runwise`` is this repository's profiler, which
classifies a run of identical shadow records at once and so costs about
as much as the Python Callgrind.
"""

from __future__ import annotations

from _support import (
    OVERHEAD_SUITE,
    save_artifact,
    timed_byte_sigil,
    timed_callgrind,
    timed_native,
    timed_sigil,
)
from repro.analysis import render_table
from repro.core import SigilConfig, SigilProfiler
from repro.workloads import get_workload


def _collect():
    rows = []
    sigil_slowdowns = []
    callgrind_slowdowns = []
    runwise_slowdowns = []
    for name in OVERHEAD_SUITE:
        native = timed_native(name)
        callgrind = timed_callgrind(name)
        sigil = timed_byte_sigil(name)
        runwise, _ = timed_sigil(name)
        s_slow = sigil / native
        c_slow = callgrind / native
        r_slow = runwise / native
        sigil_slowdowns.append(s_slow)
        callgrind_slowdowns.append(c_slow)
        runwise_slowdowns.append(r_slow)
        rows.append(
            (name, f"{native * 1e3:.1f}", f"{callgrind * 1e3:.1f}",
             f"{sigil * 1e3:.1f}", f"{runwise * 1e3:.1f}", f"{c_slow:.1f}x",
             f"{s_slow:.1f}x", f"{r_slow:.1f}x")
        )
    rows.append(
        ("average", "", "", "", "",
         f"{sum(callgrind_slowdowns) / len(callgrind_slowdowns):.1f}x",
         f"{sum(sigil_slowdowns) / len(sigil_slowdowns):.1f}x",
         f"{sum(runwise_slowdowns) / len(runwise_slowdowns):.1f}x")
    )
    return rows, sigil_slowdowns, callgrind_slowdowns


def test_fig4_slowdown_table(benchmark):
    def profile_once():
        # The operative cost Figure 4 characterises: a full Sigil pass.
        profiler = SigilProfiler(SigilConfig())
        get_workload("blackscholes", "simsmall").run(profiler)
        return profiler

    benchmark.pedantic(profile_once, rounds=3, iterations=1)

    rows, sigil_slow, cg_slow = _collect()
    table = render_table(
        ["benchmark", "native_ms", "callgrind_ms", "sigil_ms", "runwise_ms",
         "callgrind_slowdown", "sigil_slowdown", "runwise_slowdown"],
        rows,
        title="Figure 4: slowdown of Sigil and Callgrind relative to native "
              "(simsmall)",
    )
    save_artifact("fig4_slowdown.txt", table)

    # Shape checks (the paper's ordering): both tools cost more than native,
    # and per-byte shadowing makes Sigil costlier than Callgrind on all but
    # at most one workload, and on average.
    assert all(c > 1.0 for c in cg_slow)
    assert all(s > 1.0 for s in sigil_slow)
    flipped = sum(1 for s, c in zip(sigil_slow, cg_slow) if s <= c)
    assert flipped <= 1, "at most the block-transfer outlier may flip"
    avg_sigil = sum(sigil_slow) / len(sigil_slow)
    avg_cg = sum(cg_slow) / len(cg_slow)
    assert avg_sigil > avg_cg
