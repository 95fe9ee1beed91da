#!/usr/bin/env python
"""Critical-path case study (paper section IV-C, Figure 13).

Profiles workloads in event mode, writes the event files to disk, then
post-processes them offline -- exactly the paper's split between collection
and analysis -- to report per-benchmark dependency chains and the maximum
theoretical function-level parallelism.

Run:  python examples/critical_path_study.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import SigilConfig, profile_workload
from repro.analysis import analyze_critical_path, render_barchart
from repro.io import dump_events_bin, load_event_arrays

SUITE = ("blackscholes", "dedup", "fluidanimate", "libquantum",
         "raytrace", "streamcluster", "x264")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="sigil-events-"))
    print(f"writing event files to {workdir}\n")

    trees = {}
    for name in SUITE:
        run = profile_workload(
            name, "simsmall", config=SigilConfig(event_mode=True),
            with_callgrind=False,
        )
        dump_events_bin(run.sigil.events, workdir / f"{name}.events")
        trees[name] = run.sigil.tree

    # Offline pass: load the event files back and analyze.
    parallelism = {}
    for name in SUITE:
        events = load_event_arrays(workdir / f"{name}.events")
        result = analyze_critical_path(events)
        parallelism[name] = result.max_parallelism
        chain = " -> ".join(result.path_functions(trees[name]))
        print(f"{name}:")
        print(f"  serial {result.serial_length} ops, "
              f"critical {result.critical_length} ops")
        print(f"  chain (leaf to main): {chain}\n")

    print(render_barchart(
        parallelism,
        title="Figure 13: maximum speedup from function-level parallelism",
        fmt="{:.1f}",
    ))


if __name__ == "__main__":
    main()
