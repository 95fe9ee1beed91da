"""Campaign executor overhead: coordinator idle and per-job overhead.

Not a paper artifact -- it measures the engine that produces the figure
benches' profiles.  Runs the serial 13-cell overhead suite at simsmall
(``sigil+callgrind`` with re-use and event mode, the figure benches' cell
configuration) through :func:`repro.campaign.run_campaign` with one worker,
each run into a fresh store, and splits every run's time three ways:

``wall_s``
    The campaign's own wall seconds.
``job_s``
    Summed ``JobRecord.seconds`` (worker launch to reap).
``phases_s``
    Summed profiling phases (setup, execute, aggregate) from each stored
    ``meta.json``.
``idle_s``
    ``wall_s - job_s``: time the coordinator spent between jobs.
``job_overhead_s``
    Median over the run's jobs of job seconds minus phases: fork, store
    publication and reap -- the quantity perfbench's traced
    ``campaign.job_overhead_s`` reports.

Run directly to publish machine-readable numbers::

    PYTHONPATH=src python benchmarks/bench_campaign.py

merges a ``campaign`` section (the median of each figure over the runs, and
every run's row) into ``BENCH_throughput.json`` at the repo root.  It gates
nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
from pathlib import Path

from repro.campaign import ResultStore, run_campaign

from _support import OVERHEAD_SUITE, full_job

SIZE = "simsmall"
RUNS = 5
FIGURES = ("wall_s", "job_s", "phases_s", "idle_s", "job_overhead_s")


def one_run(jobs, root: Path) -> dict:
    """One cold serial campaign into a fresh store at ``root``."""
    store = ResultStore(root)
    result = run_campaign(jobs, store, workers=1, timeout=60.0, retries=0)
    if not result.ok:
        raise RuntimeError(result.summary("bench-campaign"))
    job_s, phases_s = [], []
    for job in jobs:
        meta = json.loads((store.object_dir(job.key) / "meta.json").read_text())
        job_s.append(result.records[job.key].seconds)
        phases_s.append(sum(meta["phases"].values()))
    return {
        "wall_s": result.wall_seconds,
        "job_s": sum(job_s),
        "phases_s": sum(phases_s),
        "idle_s": result.wall_seconds - sum(job_s),
        "job_overhead_s": statistics.median(
            j - p for j, p in zip(job_s, phases_s)
        ),
    }


def measure() -> dict:
    jobs = [full_job(w, SIZE) for w in OVERHEAD_SUITE]
    rows = []
    for _ in range(RUNS):
        with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
            rows.append(one_run(jobs, Path(tmp)))
    report = {
        "cells": len(jobs),
        "size": SIZE,
        "tool": jobs[0].tool,
        "workers": 1,
        "runs": RUNS,
    }
    for name in FIGURES:
        report[name] = round(statistics.median(r[name] for r in rows), 4)
    report["per_run"] = [
        {name: round(r[name], 4) for name in FIGURES} for r in rows
    ]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="publish campaign executor overhead"
    )
    root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "-o", "--out",
        default=str(root / "BENCH_throughput.json"),
        help="JSON file to merge the campaign section into",
    )
    args = parser.parse_args(argv)

    report = measure()
    out = Path(args.out)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged["campaign"] = dict(report, generated_by="benchmarks/bench_campaign.py")
    out.write_text(json.dumps(merged, indent=2) + "\n")

    print(
        f"campaign  {report['cells']} cells x {report['runs']} runs, "
        f"medians: wall {report['wall_s']:.3f}s, jobs {report['job_s']:.3f}s, "
        f"phases {report['phases_s']:.3f}s"
    )
    print(
        f"overhead  coordinator idle {report['idle_s']:.3f}s, "
        f"per job {report['job_overhead_s']:.4f}s"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
