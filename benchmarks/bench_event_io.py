"""Event-log I/O throughput: write-only text v1 vs binary columnar v2.

Not a paper artifact -- a performance baseline for the reproduction's own
dump--load--analyze path.  The workload is a synthetic ≥1M-segment event
log with the shape a long profiled run produces (a long order/call chain
with periodic data edges).  Both formats are dumped; only v2 has a reader,
so the v2 file alone is loaded back and run through the longest-path
critical-path analysis, and streamed through the section IV-C list
scheduler at 1, 2, 4 and 8 cores.  A chain has at most one segment ready
at a time, so a second, wide log -- a root fanning out to many independent
chains (:func:`wide_log`) -- is also scheduled from its v2 file.  Every
result must equal the in-memory log's: the critical and serial lengths,
and for each schedule the makespan, the cross-core bytes and the
placement of every segment.

Run directly to publish machine-readable numbers::

    PYTHONPATH=src python benchmarks/bench_event_io.py

merges an ``event_io`` section into ``BENCH_throughput.json`` at the repo
root (preserving the observer-throughput numbers published by
``bench_tool_throughput.py``).  ``--check`` exits non-zero unless the
binary file is smaller than the text file (the CI regression smoke); the
dump, load and schedule times are reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import analyze_critical_path, speedup_curve
from repro.core.segments import (
    DATA_EDGE_DTYPE,
    OC_EDGE_DTYPE,
    OC_KIND_CALL,
    OC_KIND_ORDER,
    SEG_DTYPE,
    EventArrays,
)
from repro.io import dump_events, dump_events_bin, load_event_arrays

N_SEGMENTS = 1_000_000
DATA_EDGE_STRIDE = 16  # one data edge per this many segments
DATA_EDGE_SPAN = 64  # producer runs this far behind its consumer
SCHEDULE_CORES = [1, 2, 4, 8]
WIDE_CHAINS = 128  # independent chains under the wide log's root
WIDE_CHAIN_LENGTH = 1000  # segments per chain


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


def wide_log(chains: int = WIDE_CHAINS,
             length: int = WIDE_CHAIN_LENGTH) -> EventArrays:
    """A deterministic fan of ``chains`` order chains under one root.

    Segment 0 calls the first segment of every chain; chain ``c``'s step
    ``j`` is segment ``1 + j * chains + c``, so the chains interleave in id
    order as round-robin tasks do.  Every ``DATA_EDGE_STRIDE``-th step also
    sends bytes to the next step of the neighbouring chain, so placements
    that split the two cost cross-core bytes.
    """
    n = 1 + chains * length
    ids = np.arange(n, dtype=np.int64)
    segs = np.empty(n, dtype=SEG_DTYPE)
    segs["ctx"] = ids % 997
    segs["call"] = ids
    segs["start"] = ids * 3
    segs["ops"] = (ids * 7) % 100 + 1
    segs["thread"] = 0

    steps = ids[1:].reshape(length, chains)
    oc = np.empty(chains + (length - 1) * chains, dtype=OC_EDGE_DTYPE)
    oc["kind"][:chains] = OC_KIND_CALL
    oc["src"][:chains] = 0
    oc["dst"][:chains] = steps[0]
    oc["kind"][chains:] = OC_KIND_ORDER
    oc["src"][chains:] = steps[:-1].ravel()
    oc["dst"][chains:] = steps[1:].ravel()

    src = steps[:-1:DATA_EDGE_STRIDE].ravel()
    dst = np.roll(steps[1::DATA_EDGE_STRIDE], -1, axis=1).ravel()
    data = np.empty(len(src), dtype=DATA_EDGE_DTYPE)
    data["src"] = src
    data["dst"] = dst
    data["bytes"] = (dst % 512) + 8

    return EventArrays(segs=segs, ordercall=oc, data=data)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def measure(n_segments: int = N_SEGMENTS, workdir: Path = Path(".")) -> dict:
    """Dump timings for both formats, and v2 load+analyze, on one log."""
    arrays = synth_log(n_segments)
    text_path = workdir / "bench_events.v1.events"
    bin_path = workdir / "bench_events.v2.events"

    text_dump_s, _ = _timed(lambda: dump_events(arrays, text_path))
    bin_dump_s, _ = _timed(lambda: dump_events_bin(arrays, bin_path))

    bin_load_s, bin_result = _timed(
        lambda: analyze_critical_path(load_event_arrays(bin_path))
    )
    live = analyze_critical_path(arrays)
    if (
        live.critical_length != bin_result.critical_length
        or live.serial_length != bin_result.serial_length
    ):
        raise AssertionError(
            "the v2 reload analysed differently from the in-memory log: "
            f"{live.critical_length}/{live.serial_length} vs "
            f"{bin_result.critical_length}/{bin_result.serial_length}"
        )

    bin_schedule_s, bin_curve = _timed(
        lambda: speedup_curve(bin_path, SCHEDULE_CORES)
    )
    _check_schedules("chain", speedup_curve(arrays, SCHEDULE_CORES),
                     bin_curve)
    del bin_curve

    wide = wide_log()
    wide_path = workdir / "bench_events_wide.v2.events"
    dump_events_bin(wide, wide_path)
    wide_schedule_s, wide_curve = _timed(
        lambda: speedup_curve(wide_path, SCHEDULE_CORES)
    )
    _check_schedules("wide", speedup_curve(wide, SCHEDULE_CORES), wide_curve)

    report = {
        "n_segments": n_segments,
        "n_edges": int(len(arrays.ordercall) + len(arrays.data)),
        "text": {
            "dump_s": round(text_dump_s, 3),
            "file_bytes": text_path.stat().st_size,
        },
        "binary": {
            "dump_s": round(bin_dump_s, 3),
            "load_critpath_s": round(bin_load_s, 3),
            "load_schedule_s": round(bin_schedule_s, 3),
            "load_schedule_wide_s": round(wide_schedule_s, 3),
            "file_bytes": bin_path.stat().st_size,
        },
        "wide_segments": len(wide.segs),
        "dump_speedup": round(text_dump_s / bin_dump_s, 2),
    }
    text_path.unlink()
    bin_path.unlink()
    wide_path.unlink()
    return report


def _check_schedules(name: str, live, loaded) -> None:
    """Raise unless the v2 reload scheduled exactly as the in-memory log:
    same makespan, cross-core bytes and placement at every core count."""
    for want, got in zip(live, loaded):
        if want != got:
            raise AssertionError(
                f"the v2 reload of the {name} log scheduled differently "
                f"from the in-memory log at {want.n_cores} cores: makespan "
                f"{want.makespan} vs {got.makespan}, cross-core bytes "
                f"{want.cross_core_bytes} vs {got.cross_core_bytes}, "
                f"placement equal: {want.placement == got.placement}"
            )


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
        help="exit non-zero unless the binary file is smaller than the "
             "text file (the CI perf smoke)",
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

    text, binary = report["text"], report["binary"]
    print(f"text    dump {text['dump_s']:>7.3f}s"
          f"  {text['file_bytes']:>12,} bytes")
    print(f"binary  dump {binary['dump_s']:>7.3f}s"
          f"  {binary['file_bytes']:>12,} bytes"
          f"  load+critpath {binary['load_critpath_s']:>7.3f}s"
          f"  load+schedule x{len(SCHEDULE_CORES)}"
          f" {binary['load_schedule_s']:>7.3f}s")
    print(f"wide    {report['wide_segments']:,} segments"
          f"  load+schedule x{len(SCHEDULE_CORES)}"
          f" {binary['load_schedule_wide_s']:>7.3f}s")
    print(f"binary over text: dump x{report['dump_speedup']}, "
          f"file x{text['file_bytes'] / binary['file_bytes']:.2f} smaller")
    print(f"wrote {out}")

    if args.check and binary["file_bytes"] >= text["file_bytes"]:
        print(
            f"--check: binary file ({binary['file_bytes']:,} B) is not "
            f"smaller than text ({text['file_bytes']:,} B); the binary "
            f"writer has regressed",
            file=sys.stderr,
        )
        return 1
    if args.check:
        print("--check: binary file smaller than text OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
