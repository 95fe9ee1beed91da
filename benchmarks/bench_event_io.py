"""Event-log I/O throughput: text v1 vs binary columnar v2.

Not a paper artifact -- a performance baseline for the reproduction's own
load--analyze path.  The workload is a synthetic ≥1M-segment event log with
the shape the batched trace transport produces (a long order/call chain
with periodic data edges), measured end to end: serialise, load back, and
run the longest-path critical-path analysis on the loaded form.

Run directly to publish machine-readable numbers::

    PYTHONPATH=src python benchmarks/bench_event_io.py

merges an ``event_io`` section into ``BENCH_throughput.json`` at the repo
root (preserving the observer-throughput numbers published by
``bench_tool_throughput.py``).  ``--check`` exits non-zero if the binary
load+critical-path is not at least ``--min-speedup`` times faster than the
text path (the CI regression smoke; binary must never be slower).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import analyze_critical_path
from repro.core.segments import (
    DATA_EDGE_DTYPE,
    OC_EDGE_DTYPE,
    SEG_DTYPE,
    EventArrays,
)
from repro.io import dump_events, dump_events_bin, load_event_arrays

N_SEGMENTS = 1_000_000
DATA_EDGE_STRIDE = 16  # one data edge per this many segments
DATA_EDGE_SPAN = 64  # producer runs this far behind its consumer


def synth_log(n_segments: int = N_SEGMENTS) -> EventArrays:
    """A deterministic event log shaped like a long profiled run.

    Segments form one order/call chain (alternating kinds, as interleaved
    fragments of nested calls produce), with a data edge every
    ``DATA_EDGE_STRIDE`` segments reaching ``DATA_EDGE_SPAN`` back -- enough
    edge variety that the critical-path DP sees realistic predecessor
    groups.
    """
    ids = np.arange(n_segments, dtype=np.int64)
    segs = np.empty(n_segments, dtype=SEG_DTYPE)
    segs["ctx"] = ids % 997
    segs["call"] = ids
    segs["start"] = ids * 3
    segs["ops"] = (ids * 7) % 100 + 1
    segs["thread"] = 0

    oc = np.empty(max(n_segments - 1, 0), dtype=OC_EDGE_DTYPE)
    oc["kind"] = (ids[1:] % 2).astype(np.int8)
    oc["src"] = ids[:-1]
    oc["dst"] = ids[1:]

    dst = np.arange(DATA_EDGE_SPAN, n_segments, DATA_EDGE_STRIDE, dtype=np.int64)
    data = np.empty(len(dst), dtype=DATA_EDGE_DTYPE)
    data["src"] = dst - DATA_EDGE_SPAN
    data["dst"] = dst
    data["bytes"] = (dst % 512) + 8

    return EventArrays(segs=segs, ordercall=oc, data=data)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def measure(n_segments: int = N_SEGMENTS, workdir: Path = Path(".")) -> dict:
    """Dump/load/analyze timings for both formats on one synthetic log."""
    arrays = synth_log(n_segments)
    text_path = workdir / "bench_events.v1.events"
    bin_path = workdir / "bench_events.v2.events"

    text_dump_s, _ = _timed(lambda: dump_events(arrays, text_path))
    bin_dump_s, _ = _timed(lambda: dump_events_bin(arrays, bin_path))

    def load_and_analyze(path):
        loaded = load_event_arrays(path)
        return analyze_critical_path(loaded)

    text_load_s, text_result = _timed(lambda: load_and_analyze(text_path))
    bin_load_s, bin_result = _timed(lambda: load_and_analyze(bin_path))
    if (
        text_result.critical_length != bin_result.critical_length
        or text_result.serial_length != bin_result.serial_length
    ):
        raise AssertionError(
            "text and binary forms analysed differently: "
            f"{text_result.critical_length}/{text_result.serial_length} vs "
            f"{bin_result.critical_length}/{bin_result.serial_length}"
        )

    report = {
        "n_segments": n_segments,
        "n_edges": int(len(arrays.ordercall) + len(arrays.data)),
        "text": {
            "dump_s": round(text_dump_s, 3),
            "load_critpath_s": round(text_load_s, 3),
            "file_bytes": text_path.stat().st_size,
        },
        "binary": {
            "dump_s": round(bin_dump_s, 3),
            "load_critpath_s": round(bin_load_s, 3),
            "file_bytes": bin_path.stat().st_size,
        },
        "load_critpath_speedup": round(text_load_s / bin_load_s, 2),
        "dump_speedup": round(text_dump_s / bin_dump_s, 2),
    }
    text_path.unlink()
    bin_path.unlink()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="publish event-log I/O throughput (text v1 vs binary v2)"
    )
    root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "-o", "--out",
        default=str(root / "BENCH_throughput.json"),
        help="JSON file to merge the event_io section into",
    )
    parser.add_argument(
        "--segments", type=int, default=N_SEGMENTS,
        help=f"log size in segments (default {N_SEGMENTS})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless binary load+critical-path beats the "
             "text path by at least --min-speedup (the CI perf smoke)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.0,
        help="minimum binary-over-text load speedup for --check (default 1.0)",
    )
    args = parser.parse_args(argv)

    out = Path(args.out)
    report = measure(args.segments, workdir=out.parent)

    merged = {}
    if out.exists():
        merged = json.loads(out.read_text())
    merged["event_io"] = dict(
        report, generated_by="benchmarks/bench_event_io.py"
    )
    out.write_text(json.dumps(merged, indent=2) + "\n")

    for fmt in ("text", "binary"):
        row = report[fmt]
        print(
            f"{fmt:<6}  dump {row['dump_s']:>7.3f}s"
            f"  load+critpath {row['load_critpath_s']:>7.3f}s"
            f"  {row['file_bytes']:>12,} bytes"
        )
    print(
        f"binary over text: dump x{report['dump_speedup']}, "
        f"load+critpath x{report['load_critpath_speedup']}"
    )
    print(f"wrote {out}")

    if args.check and report["load_critpath_speedup"] < args.min_speedup:
        print(
            f"--check: binary load+critical-path is only "
            f"x{report['load_critpath_speedup']} vs text "
            f"(required >= x{args.min_speedup}); the binary path has "
            f"regressed",
            file=sys.stderr,
        )
        return 1
    if args.check:
        print(
            f"--check: binary >= x{args.min_speedup} over text "
            f"(x{report['load_critpath_speedup']}) OK"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
