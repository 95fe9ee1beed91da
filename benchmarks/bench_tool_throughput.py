"""Tooling throughput: primitive events per second, per configuration.

Not a paper artifact -- a performance baseline for the reproduction itself,
so regressions in the hot paths (shadow classification, cache simulation,
trace transport) show up in ``--benchmark-compare`` runs.  The workload is a
deterministic streaming stream: each round a producer writes a contiguous
block element by element and a consumer reads it back, which is the shape
the batched transport exists for (long access runs between function
boundaries).

Run directly to publish machine-readable numbers::

    PYTHONPATH=src python benchmarks/bench_tool_throughput.py

writes ``BENCH_throughput.json`` at the repo root with per-configuration
events/sec for the scalar and batched transports.  ``--check CONFIG`` exits
non-zero if the batched transport's speedup falls below that
configuration's floor (the CI perf smoke): at least 1.0x everywhere --
batching must never be a regression -- and 5.0x for ``callgrind``, whose
batch kernel was rewritten to hit the ROADMAP target, so the PR 4
regression cannot silently return.

Only tools with a batch kernel have a row.  The Sigil profiler has one
memory kernel, the scalar one, and replays batches through it, so a Sigil
row would compare that kernel with itself behind a buffer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

from repro.callgrind import CallgrindCollector
from repro.core import LineReuseProfiler
from repro.trace.batch import DEFAULT_BATCH_SIZE, BatchingTransport
from repro.trace.events import OpKind

N_ROUNDS = 40
BLOCK = 256  # accesses per produced/consumed block


def drive(observer) -> int:
    """A deterministic streaming trace; returns the number of primitives.

    Each round: ``producer`` writes a ``BLOCK``-element block one 8-byte
    store at a time, ``consumer`` streams it back.  Function boundaries
    (and one branch per round) are the only transport flush points, so the
    batched path sees realistic long access runs rather than degenerate
    two-access batches.
    """
    observer.on_run_begin()
    observer.on_fn_enter("main")
    events = 2
    for i in range(N_ROUNDS):
        base = 0x1000 + (i % 8) * BLOCK * 8
        observer.on_fn_enter("producer")
        observer.on_op(OpKind.INT, 20)
        for j in range(BLOCK):
            observer.on_mem_write(base + j * 8, 8)
        observer.on_fn_exit("producer")
        observer.on_fn_enter("consumer")
        for j in range(BLOCK):
            observer.on_mem_read(base + j * 8, 8)
        observer.on_op(OpKind.FLOAT, 30)
        observer.on_branch(i % 7, i % 3 == 0)
        observer.on_fn_exit("consumer")
        events += 2 * BLOCK + 7
    observer.on_fn_exit("main")
    observer.on_run_end()
    return events


CONFIGS = {
    "callgrind": lambda: CallgrindCollector(),
    "line-reuse": lambda: LineReuseProfiler(64),
}

#: ``--check`` speedup floors.  Every config must at least break even; the
#: cache-simulating Callgrind run carries the ROADMAP's >= 5x target.
CHECK_FLOORS = {
    "callgrind": 5.0,
}
DEFAULT_CHECK_FLOOR = 1.0


def _observer(config: str, batch_size: int):
    tool = CONFIGS[config]()
    if batch_size:
        return BatchingTransport(tool, batch_size)
    return tool


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize(
    "batch_size", [0, DEFAULT_BATCH_SIZE], ids=["scalar", "batched"]
)
def test_observer_throughput(benchmark, config, batch_size):
    def once():
        return drive(_observer(config, batch_size))

    events = benchmark.pedantic(once, rounds=5, iterations=1)
    assert events > 4000
    benchmark.extra_info["primitives"] = events
    benchmark.extra_info["batch_size"] = batch_size


# -- standalone publisher ----------------------------------------------------


def _timed_run(config: str, batch_size: int) -> tuple:
    """(primitives, seconds) of one drive through a fresh observer."""
    observer = _observer(config, batch_size)
    t0 = time.perf_counter()
    events = drive(observer)
    return events, time.perf_counter() - t0


def measure(repeats: int = 5, batch_size: int = DEFAULT_BATCH_SIZE) -> dict:
    """Best-of-``repeats`` events/sec for every config, both transports.

    Scalar and batched repeats alternate, so a burst of host contention
    lands on both sides of the ratio instead of on one.
    """
    results = {}
    for config in sorted(CONFIGS):
        best = [float("inf"), float("inf")]  # scalar, batched seconds
        for _ in range(repeats):
            for side, size in enumerate((0, batch_size)):
                events, seconds = _timed_run(config, size)
                best[side] = min(best[side], seconds)
        scalar, batched = events / best[0], events / best[1]
        results[config] = {
            "scalar_events_per_sec": round(scalar),
            "batched_events_per_sec": round(batched),
            "speedup": round(batched / scalar, 2),
        }
    return {
        "generated_by": "benchmarks/bench_tool_throughput.py",
        "workload": {
            "rounds": N_ROUNDS,
            "block": BLOCK,
            "events_per_run": drive(_observer("callgrind", 0)),
        },
        "batch_size": batch_size,
        "repeats": repeats,
        "configs": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="publish observer throughput (scalar vs batched transport)"
    )
    parser.add_argument(
        "-o", "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_throughput.json"),
        help="output JSON path (default: BENCH_throughput.json at repo root)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per configuration (best-of)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="transport ring size for the batched runs",
    )
    parser.add_argument(
        "--check", metavar="CONFIG", action="append", default=[],
        help="exit non-zero unless CONFIG's batched speedup meets its "
             "floor (1.0x by default, 5.0x for callgrind; "
             "repeatable; the CI perf smoke)",
    )
    args = parser.parse_args(argv)

    report = measure(repeats=args.repeats, batch_size=args.batch_size)
    out = Path(args.out)
    if out.exists():  # keep sections published by sibling benches
        try:
            prior = json.loads(out.read_text())
        except (OSError, ValueError):
            prior = {}
        for key, value in prior.items():
            report.setdefault(key, value)
    out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(c) for c in report["configs"])
    for config, row in report["configs"].items():
        print(
            f"{config:<{width}}  scalar {row['scalar_events_per_sec']:>10,}/s"
            f"  batched {row['batched_events_per_sec']:>10,}/s"
            f"  x{row['speedup']}"
        )
    print(f"wrote {args.out}")

    failed = False
    for config in args.check:
        if config not in report["configs"]:
            print(f"--check: unknown config {config!r}", file=sys.stderr)
            failed = True
            continue
        floor = CHECK_FLOORS.get(config, DEFAULT_CHECK_FLOOR)
        speedup = report["configs"][config]["speedup"]
        if speedup < floor:
            print(
                f"--check: batched transport speedup for {config} is "
                f"x{speedup}, below its x{floor} floor; the batch path "
                "has regressed",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"--check: {config} x{speedup} >= x{floor} floor OK")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
