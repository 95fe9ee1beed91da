"""Process startup: what a `repro` command imports, and what that costs.

Not a paper artifact -- it measures the fixed cost every ``repro`` process
pays before its command runs.  The paper's offline model post-processes one
event file in separate passes (critical path, scheduling, WS(t)), each a
process of its own, so on a short log the imports are a large share of a
pass.  Four child processes are timed, end to end:

``import``
    ``import repro.cli`` and nothing else.
``critpath``
    ``repro critpath LOG --cores 1,2,4,8`` on a fixed synthetic log
    (``LOG_SEGMENTS`` segments, the shape of ``bench_event_io.py``'s).
``timeline``
    ``repro timeline LOG`` on the same log.
``profile``
    ``repro profile blackscholes --size simsmall``.

Each is measured in two bytecode states, alternating command by command:

``cold_s``
    Every ``repro`` module compiled from source: the children import a
    fresh copy of the package with ``PYTHONDONTWRITEBYTECODE=1``, as a
    checkout run from a shell that sets it does.
``warm_s``
    Every module read from bytecode: a ``PYTHONPYCACHEPREFIX`` under a
    temporary directory, warmed by one untimed run of each command.

``modules`` is the number of ``repro.*`` modules the command loaded.

Run directly to publish machine-readable numbers::

    PYTHONPATH=src python benchmarks/bench_startup.py

merges a ``startup`` section (the median of each state over ``REPEATS``
runs, and every run's seconds) into ``BENCH_throughput.json`` at the repo
root.  ``--src DIR`` measures another tree's ``src`` (say, a parent
commit's) against the same log.  It gates nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.io import dump_events_bin

from bench_event_io import synth_log

LOG_SEGMENTS = 20_000
REPEATS = 7
STATES = ("cold_s", "warm_s")

#: Runs the CLI (or only imports it) and reports the `repro.*` modules
#: loaded, on stderr, after the command's own output.
_CHILD = """
import sys
from repro.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
n = sum(1 for m in sys.modules if m == "repro" or m.startswith("repro."))
sys.stderr.write(f"\\nREPRO_MODULES {n}\\n")
sys.exit(code)
"""


def commands(log: Path, out: Path) -> dict:
    """Command name -> CLI arguments (empty: import only)."""
    return {
        "import": [],
        "critpath": ["critpath", str(log), "--cores", "1,2,4,8"],
        "timeline": ["timeline", str(log), "-o", str(out / "t.json")],
        "profile": ["profile", "blackscholes", "--size", "simsmall"],
    }


def run_child(argv, env: dict, cwd: Path):
    """(seconds, repro modules) of one child running ``argv``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=env, cwd=cwd,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv}: exit {proc.returncode}: {proc.stderr}")
    modules = int(proc.stderr.rsplit("REPRO_MODULES", 1)[1])
    return seconds, modules


def environments(src: Path, tmp: Path) -> dict:
    """State -> child environment; copies ``src`` for the cold state."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    cold_src = tmp / "cold-src"
    shutil.copytree(src / "repro", cold_src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    return {
        "cold_s": {**base, "PYTHONPATH": str(cold_src),
                   "PYTHONDONTWRITEBYTECODE": "1"},
        "warm_s": {**base, "PYTHONPATH": str(src),
                   "PYTHONPYCACHEPREFIX": str(tmp / "pycache")},
    }


def measure(src: Path) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-startup-") as name:
        tmp = Path(name)
        log = tmp / "synth.events"
        dump_events_bin(synth_log(LOG_SEGMENTS), log)
        argvs = commands(log, tmp)
        envs = environments(src, tmp)
        modules = {}
        for cmd, argv in argvs.items():  # warm the bytecode prefix
            _, modules[cmd] = run_child(argv, envs["warm_s"], tmp)
        runs = {cmd: {state: [] for state in STATES} for cmd in argvs}
        for _ in range(REPEATS):
            for cmd, argv in argvs.items():
                for state in STATES:
                    seconds, _ = run_child(argv, envs[state], tmp)
                    runs[cmd][state].append(round(seconds, 4))
    report = {"log_segments": LOG_SEGMENTS, "repeats": REPEATS}
    for cmd in argvs:
        report[cmd] = {
            **{state: round(statistics.median(runs[cmd][state]), 4)
               for state in STATES},
            "modules": modules[cmd],
            "per_run": runs[cmd],
        }
    return report


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(
        description="publish `repro` process startup cost and import sets"
    )
    parser.add_argument(
        "-o", "--out",
        default=str(root / "BENCH_throughput.json"),
        help="JSON file to merge the startup section into",
    )
    parser.add_argument(
        "--src", default=str(root / "src"),
        help="the tree whose `repro` package the children import "
             "(default: this checkout's src)",
    )
    args = parser.parse_args(argv)

    report = measure(Path(args.src).resolve())
    out = Path(args.out)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged["startup"] = dict(report, generated_by="benchmarks/bench_startup.py")
    out.write_text(json.dumps(merged, indent=2) + "\n")

    for cmd in commands(Path("LOG"), Path(".")):
        row = report[cmd]
        print(f"{cmd:9s} cold {row['cold_s']:.3f}s  warm {row['warm_s']:.3f}s"
              f"  {row['modules']} repro modules")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
