"""Sigil's shadow memory on a fragmenting workload, and one fragmented page.

Not a paper artifact -- it measures the worst case of the run-length shadow
pages (``repro.core.shadow``), where every unit of a page is its own run.
No paper workload comes near it (``sigil.shadow.runs`` per
``sigil.shadow.chunks`` is 1 on streamcluster and facesim, 1.47 on
raytrace), so this bench builds it on purpose, with re-use and event mode
on (44 B records):

``fragment_s``
    Two functions, ``f`` and ``g``, take turns writing one byte each,
    call by call, across all of ``PAGES`` pages: every unit gets its own
    writer segment, so every page is fully fragmented (4,096 runs).
``read_s``
    ``READ_ROUNDS`` rounds of page-wide reads, each page read whole by
    ``r`` and then by ``s``: every read meets 4,096 runs and leaves the
    page fragmented.
``write_s``
    One page-wide write per page: each closes and retires 4,096 runs and
    leaves one.
``events_per_s``
    All of the above, in observer events per second.

``page_bytes`` is the ``tracemalloc`` size of what ``core/shadow.py``
allocated and still holds after one fully fragmented page (the records,
the run starts, the page object), against ``per_unit_bytes``, 4,096 × the
record size: what a page costs with one record per unit.

Run directly to publish machine-readable numbers::

    PYTHONPATH=src python benchmarks/bench_shadow.py

merges a ``shadow`` section (medians over ``REPEATS`` runs, and every
run's row) into ``BENCH_throughput.json`` at the repo root.  It gates
nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
import tracemalloc
from pathlib import Path

from repro.core import SHADOW_PAGE_SIZE, SigilConfig, SigilProfiler

PAGES = 4
READ_ROUNDS = 4
REPEATS = 5
PHASES = ("fragment_s", "read_s", "write_s")


def _profiler() -> SigilProfiler:
    profiler = SigilProfiler(SigilConfig(reuse_mode=True, event_mode=True))
    profiler.on_run_begin()
    return profiler


def _fragment(profiler: SigilProfiler, pages: int) -> int:
    """Single-byte writes, ``f`` and ``g`` in turn, over ``pages`` pages;
    returns the events sent."""
    for unit in range(pages * SHADOW_PAGE_SIZE):
        name = "g" if unit % 2 else "f"
        profiler.on_fn_enter(name)
        profiler.on_mem_write(unit, 1)
        profiler.on_fn_exit(name)
    return 3 * pages * SHADOW_PAGE_SIZE


def _wide(profiler: SigilProfiler, names, access) -> int:
    """Each of ``names`` accesses every page whole; returns the events."""
    for name in names:
        for page in range(PAGES):
            profiler.on_fn_enter(name)
            access(page * SHADOW_PAGE_SIZE, SHADOW_PAGE_SIZE)
            profiler.on_fn_exit(name)
    return 3 * PAGES * len(names)


def one_run() -> dict:
    """One cold pass of the three phases; seconds per phase and events/s."""
    profiler = _profiler()
    gc.collect()
    t0 = time.perf_counter()
    events = _fragment(profiler, PAGES)
    t1 = time.perf_counter()
    events += _wide(profiler, ("r", "s") * READ_ROUNDS, profiler.on_mem_read)
    t2 = time.perf_counter()
    events += _wide(profiler, ("w",), profiler.on_mem_write)
    t3 = time.perf_counter()
    profiler.on_run_end()
    return {
        "fragment_s": t1 - t0,
        "read_s": t2 - t1,
        "write_s": t3 - t2,
        "events_per_s": events / (t3 - t0),
    }


def fragmented_page_bytes() -> int:
    """``tracemalloc`` bytes ``core/shadow.py`` holds for one fully
    fragmented page."""
    profiler = _profiler()
    gc.collect()
    tracemalloc.start()
    try:
        _fragment(profiler, 1)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    pattern = str(Path("repro", "core", "shadow.py"))
    held = snapshot.filter_traces([tracemalloc.Filter(True, f"*{pattern}")])
    return sum(stat.size for stat in held.statistics("filename"))


def measure() -> dict:
    rows = [one_run() for _ in range(REPEATS)]
    page_bytes = fragmented_page_bytes()
    per_unit = _profiler().shadow.page_bytes
    report = {
        "pages": PAGES,
        "read_rounds": READ_ROUNDS,
        "config": "reuse+events",
        "repeats": REPEATS,
    }
    for name in PHASES + ("events_per_s",):
        report[name] = round(statistics.median(r[name] for r in rows), 4)
    report["page_bytes"] = page_bytes
    report["per_unit_bytes"] = per_unit
    report["page_bytes_ratio"] = round(page_bytes / per_unit, 3)
    report["per_run"] = [
        {name: round(value, 4) for name, value in r.items()} for r in rows
    ]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="publish shadow-memory cost on a fragmenting workload"
    )
    root = Path(__file__).resolve().parent.parent
    parser.add_argument(
        "-o", "--out",
        default=str(root / "BENCH_throughput.json"),
        help="JSON file to merge the shadow section into",
    )
    args = parser.parse_args(argv)

    report = measure()
    out = Path(args.out)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged["shadow"] = dict(report, generated_by="benchmarks/bench_shadow.py")
    out.write_text(json.dumps(merged, indent=2) + "\n")

    print(
        f"shadow  {PAGES} fragmented pages, medians of {REPEATS}: fragment "
        f"{report['fragment_s']:.3f}s, reads {report['read_s']:.3f}s, "
        f"writes {report['write_s']:.3f}s, {report['events_per_s']:,.0f} events/s"
    )
    print(
        f"page    {report['page_bytes']:,} B held for one fragmented page vs "
        f"{report['per_unit_bytes']:,} B per unit ({report['page_bytes_ratio']}x)"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
