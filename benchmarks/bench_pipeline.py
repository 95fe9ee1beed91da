"""The paper pipe's trajectory: cold ``repro profile`` processes, timed.

Not a paper artifact -- a record of what the reproduction costs end to end
on the paper's pipe (Sigil with re-use and events, plus Callgrind, in one
run).  For each program it times cold child processes of::

    repro profile W --size simlarge --reuse --events \\
        -o P --events-out E --callgrind-out C --manifest-out M

from launch to exit, alternating two sides run by run:

* ``shipped`` -- the command as users run it;
* ``transport`` -- the same command with every pipe behind a
  :class:`~repro.trace.batch.BatchingTransport`.  The bench builds that
  variant itself, in the child, by replacing ``repro.harness.transport_for``;
  the package keeps no switch for it.

Both sides must write byte-identical profile, event and Callgrind files;
the bench exits non-zero if they differ.  It writes, per program and side,
the median and quartiles of the process wall seconds and the median of the
manifest's setup/execute/aggregate seconds (plus the transport's flush
count and occupancy), into ``BENCH_pipeline.json`` at the repo root.  It
gates no speed yet: a bound goes in once the file has a trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [-o PATH]
        [--repeats N] [--size SIZE] [--programs a,b,c]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ("streamcluster", "facesim", "raytrace")
SIDES = ("shipped", "transport")
OUTPUTS = ("profile", "events", "callgrind")
PHASES = ("setup", "execute", "aggregate")


def _profile_args(program: str, size: str, stem: Path) -> list:
    return [
        "profile", program, "--size", size, "--reuse", "--events",
        "-o", f"{stem}.profile", "--events-out", f"{stem}.events",
        "--callgrind-out", f"{stem}.callgrind",
        "--manifest-out", f"{stem}.manifest.json",
    ]


def _command(side: str, args: list) -> list:
    if side == "shipped":
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(Path(__file__).resolve()), "--child", *args]


def _run_once(side: str, program: str, size: str, stem: Path) -> dict:
    """One cold process: wall seconds, manifest numbers, output digests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    start = time.perf_counter()
    subprocess.run(
        _command(side, _profile_args(program, size, stem)),
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    wall = time.perf_counter() - start
    manifest = json.loads(Path(f"{stem}.manifest.json").read_text())
    return {
        "wall_s": wall,
        "phases": {p: manifest["phases"].get(p, 0.0) for p in PHASES},
        "flushes": manifest["metrics"].get("batch.flushes", 0),
        "mean_occupancy": manifest["metrics"].get("batch.mean_occupancy", 0.0),
        "digests": {
            out: hashlib.sha256(Path(f"{stem}.{out}").read_bytes()).hexdigest()
            for out in OUTPUTS
        },
    }


def _spread(values: list) -> dict:
    """Median and quartiles, rounded to the millisecond."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def _summary(runs: list) -> dict:
    row = {
        "wall_s": _spread([r["wall_s"] for r in runs]),
        "phases_s": {
            p: round(statistics.median(r["phases"][p] for r in runs), 3)
            for p in PHASES
        },
    }
    if any(r["flushes"] for r in runs):
        row["flushes"] = runs[0]["flushes"]
        row["mean_occupancy"] = round(runs[0]["mean_occupancy"], 2)
    return row


def measure(programs, size: str, repeats: int, workdir: Path) -> dict:
    """Alternate the two sides run by run; fail on any output difference."""
    runs = {p: {side: [] for side in SIDES} for p in programs}
    for repeat in range(repeats):
        order = SIDES if repeat % 2 == 0 else SIDES[::-1]
        for program in programs:
            for side in order:
                stem = workdir / f"{program}-{side}"
                runs[program][side].append(
                    _run_once(side, program, size, stem)
                )
    report = {}
    for program in programs:
        digests = {
            r["digests"][out]
            for side in SIDES for r in runs[program][side]
            for out in OUTPUTS
        }
        if len(digests) != len(OUTPUTS):
            raise SystemExit(
                f"{program}: the shipped and transport runs wrote different "
                "bytes"
            )
        report[program] = {
            side: _summary(runs[program][side]) for side in SIDES
        }
        report[program]["identical_output"] = True
    return report


def _child(argv: list) -> int:
    """``repro`` with every pipe behind the transport (the A/B variant)."""
    import repro.harness as harness
    from repro.cli import main
    from repro.trace.batch import BatchingTransport

    harness.transport_for = BatchingTransport
    return main(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--child"]:
        return _child(argv[1:])
    parser = argparse.ArgumentParser(
        description="time the paper pipe end to end, with and without the "
                    "batched transport"
    )
    parser.add_argument(
        "-o", "--out", default=str(ROOT / "BENCH_pipeline.json"),
        help="output JSON path (default: BENCH_pipeline.json at repo root)",
    )
    parser.add_argument("--repeats", type=int, default=5,
                        help="cold runs per program and side")
    parser.add_argument("--size", default="simlarge")
    parser.add_argument("--programs", default=",".join(PROGRAMS),
                        help="comma-separated workload names")
    args = parser.parse_args(argv)
    programs = [p for p in args.programs.split(",") if p]

    workdir = Path(tempfile.mkdtemp(prefix="bench-pipeline-"))
    try:
        report = measure(programs, args.size, args.repeats, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "generated_by": "benchmarks/bench_pipeline.py",
        "command": "repro profile W --size "
                   f"{args.size} --reuse --events -o P --events-out E "
                   "--callgrind-out C --manifest-out M",
        "repeats": args.repeats,
        "programs": report,
        "total_median_wall_s": {
            side: round(sum(r[side]["wall_s"]["median"]
                            for r in report.values()), 3)
            for side in SIDES
        },
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")

    for program, row in report.items():
        cells = "  ".join(
            f"{side} {row[side]['wall_s']['median']:.2f}s "
            f"[{row[side]['wall_s']['q1']:.2f}-{row[side]['wall_s']['q3']:.2f}]"
            for side in SIDES
        )
        print(f"{program:<14} {cells}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
