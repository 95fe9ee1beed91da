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
  the package keeps no switch for it;
* ``parent`` (with ``--parent DIR``) -- the shipped command run from
  ``DIR/src``, another checkout of the package (say, a ``git archive`` of
  the parent commit), so a change is timed against its parent under the
  same host load.

Each repeat starts with the next side in turn.  The shipped and transport
sides must write byte-identical profile, event and Callgrind files; the
bench exits non-zero if they differ.  Against a parent it reports, per
program, whether the parent wrote the same bytes and in how many repeats
the shipped run beat the parent's (``change_wins``).  It writes, per
program and side,
the median and quartiles of the process wall seconds, the median of the
child's peak resident set size (``ru_maxrss`` from :func:`os.wait4`) and
the median of the manifest's setup/execute/aggregate seconds (plus the
transport's flush count and occupancy), into ``BENCH_pipeline.json`` at the
repo root.  It gates no speed yet: a bound goes in once the file has a
trajectory.

Run::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [-o PATH]
        [--repeats N] [--size SIZE] [--programs a,b,c] [--parent DIR]
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
from typing import Optional

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
    if side == "transport":
        return [sys.executable, str(Path(__file__).resolve()), "--child", *args]
    return [sys.executable, "-m", "repro", *args]


def _run_once(side: str, program: str, size: str, stem: Path, src: Path) -> dict:
    """One cold process importing ``repro`` from ``src``: wall seconds,
    manifest numbers, output digests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    command = _command(side, _profile_args(program, size, stem))
    start = time.perf_counter()
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, command)
    manifest = json.loads(Path(f"{stem}.manifest.json").read_text())
    return {
        "wall_s": wall,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": usage.ru_maxrss / 1024,
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
        "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 1),
        "phases_s": {
            p: round(statistics.median(r["phases"][p] for r in runs), 3)
            for p in PHASES
        },
    }
    if any(r["flushes"] for r in runs):
        row["flushes"] = runs[0]["flushes"]
        row["mean_occupancy"] = round(runs[0]["mean_occupancy"], 2)
    return row


def side_order(sides: tuple, repeat: int) -> tuple:
    """The sides in the order repeat ``repeat`` runs them: each repeat
    starts with the next side in turn."""
    k = repeat % len(sides)
    return sides[k:] + sides[:k]


def _digests(runs: list) -> set:
    return {r["digests"][out] for r in runs for out in OUTPUTS}


def measure(
    programs, size: str, repeats: int, workdir: Path,
    parent: Optional[Path] = None,
) -> dict:
    """Run the sides in turn, repeat by repeat; fail on any output
    difference between the shipped and transport sides."""
    sides = SIDES + (("parent",) if parent is not None else ())
    srcs = {side: ROOT / "src" for side in SIDES}
    if parent is not None:
        srcs["parent"] = parent / "src"
    runs = {p: {side: [] for side in sides} for p in programs}
    for repeat in range(repeats):
        for program in programs:
            for side in side_order(sides, repeat):
                stem = workdir / f"{program}-{side}"
                runs[program][side].append(
                    _run_once(side, program, size, stem, srcs[side])
                )
    report = {}
    for program in programs:
        mine = runs[program]["shipped"] + runs[program]["transport"]
        if len(_digests(mine)) != len(OUTPUTS):
            raise SystemExit(
                f"{program}: the shipped and transport runs wrote different "
                "bytes"
            )
        report[program] = {
            side: _summary(runs[program][side]) for side in sides
        }
        report[program]["identical_output"] = True
        if parent is not None:
            theirs = runs[program]["parent"]
            report[program]["vs_parent"] = {
                "change_wins": sum(
                    a["wall_s"] < b["wall_s"]
                    for a, b in zip(runs[program]["shipped"], theirs)
                ),
                "repeats": repeats,
                "identical_output": _digests(theirs) == _digests(mine),
            }
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
    parser.add_argument(
        "--parent", metavar="DIR", type=Path,
        help="also run the shipped command from DIR/src, another checkout "
             "of the package, and count the repeats this tree wins",
    )
    args = parser.parse_args(argv)
    programs = [p for p in args.programs.split(",") if p]
    if args.parent is not None and not (args.parent / "src" / "repro").is_dir():
        parser.error(f"--parent: no package at {args.parent / 'src' / 'repro'}")
    sides = SIDES + (("parent",) if args.parent is not None else ())

    workdir = Path(tempfile.mkdtemp(prefix="bench-pipeline-"))
    try:
        report = measure(
            programs, args.size, args.repeats, workdir, args.parent
        )
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
            for side in sides
        },
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")

    for program, row in report.items():
        cells = "  ".join(
            f"{side} {row[side]['wall_s']['median']:.2f}s "
            f"[{row[side]['wall_s']['q1']:.2f}-{row[side]['wall_s']['q3']:.2f}] "
            f"{row[side]['peak_rss_mb']:.0f} MB"
            for side in sides
        )
        if "vs_parent" in row:
            paired = row["vs_parent"]
            cells += (f"  wins {paired['change_wins']}/{paired['repeats']}"
                      f"{'' if paired['identical_output'] else ' (bytes differ)'}")
        print(f"{program:<14} {cells}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
