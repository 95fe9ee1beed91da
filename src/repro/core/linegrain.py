"""Line-granularity re-use mode (section IV-B3, Figure 12).

"Sigil can also capture line-level re-use when configured with the cache
line size.  In this mode, Sigil shadows every line in memory rather than
every byte. ... In this mode we print re-use counts and lifetime for every
block touched by the program, instead of aggregating costs by function."

This observer is deliberately lighter than the full profiler: one record per
touched line, counting repeat accesses (reads or writes after the first
touch) and the first/last access timestamps.  Re-written lines are *not*
retired -- a cache line is a fixed physical container, unlike a data byte
whose value generations the byte-level mode distinguishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.reuse import REUSE_BUCKET_LABELS, bucketise_counts
from repro.trace.events import OpKind
from repro.trace.observer import BaseObserver, _expand_batch

__all__ = ["LineRecord", "LineReuseProfiler"]


@dataclass
class LineRecord:
    """Re-use record of one memory line."""

    line_no: int
    accesses: int
    first_access: int
    last_access: int

    @property
    def reuse_count(self) -> int:
        """Repeat accesses after the first touch."""
        return self.accesses - 1

    @property
    def lifetime(self) -> int:
        return self.last_access - self.first_access


class LineReuseProfiler(BaseObserver):
    """Tracks per-line access counts and lifetimes across the whole run."""

    def __init__(self, line_size: int = 64):
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError("line_size must be a positive power of two")
        self.line_size = line_size
        self._shift = line_size.bit_length() - 1
        # line -> [accesses, first, last]; plain dict keeps this mode cheap.
        self._lines: Dict[int, List[int]] = {}
        self.time = 0

    # -- observer interface ----------------------------------------------

    def on_op(self, kind: OpKind, count: int) -> None:
        self.time += count

    def on_branch(self, site: int, taken: bool) -> None:
        self.time += 1

    def _touch(self, addr: int, size: int) -> None:
        self.time += 1
        if size <= 0:
            # Zero-byte accesses retire an instruction but touch no line;
            # fabricating a touch here would invent re-use that the
            # byte-granular modes (correctly) never see.
            return
        now = self.time
        first_line = addr >> self._shift
        last_line = (addr + size - 1) >> self._shift
        lines = self._lines
        for line_no in range(first_line, last_line + 1):
            rec = lines.get(line_no)
            if rec is None:
                lines[line_no] = [1, now, now]
            else:
                rec[0] += 1
                rec[2] = now

    def on_mem_read(self, addr: int, size: int) -> None:
        self._touch(addr, size)

    def on_mem_write(self, addr: int, size: int) -> None:
        self._touch(addr, size)

    #: Touch timestamps are per-access clock readings: the batching
    #: transport must keep ops from overtaking buffered accesses.
    batch_time_strict = True

    def on_mem_batch(self, addrs, sizes, kinds) -> None:
        """Touch a batch of accesses in one grouped pass.

        The transport flushes before every time-advancing event for strict
        observers, so access ``i`` of the batch ran at clock ``T + i + 1``
        -- reconstructing the exact scalar timestamps without per-access
        dispatch.  Lines are expanded, grouped, and merged with per-group
        counts and min/max touch times.
        """
        n = len(addrs)
        if n == 0:
            return
        addrs = np.asarray(addrs, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if int(sizes.sum()) >> self._shift > 32 * n:
            # Bulk transfers: the scalar path works on contiguous line
            # ranges, so its cost is per access while this kernel's is per
            # expanded line; past ~32 lines per access the scalar path wins.
            _expand_batch(self, addrs, sizes, kinds)
            return
        times = self.time + 1 + np.arange(n, dtype=np.int64)
        self.time += n
        valid = sizes > 0
        if not valid.all():
            addrs = addrs[valid]
            sizes = sizes[valid]
            times = times[valid]
            if addrs.size == 0:
                return
        shift = self._shift
        lo = addrs >> shift
        hi = (addrs + sizes - 1) >> shift
        if (hi == lo).all():
            # Common case: no access straddles a line; skip the ragged
            # expansion entirely.
            line, t = lo, times
            total = len(line)
        else:
            n_lines = hi - lo + 1
            total = int(n_lines.sum())
            start = np.cumsum(n_lines) - n_lines
            idx = np.arange(total, dtype=np.int64)
            line = np.repeat(lo, n_lines) + (idx - np.repeat(start, n_lines))
            t = np.repeat(times, n_lines)

        order = np.argsort(line, kind="stable")
        sl = line[order]
        st = t[order]  # non-decreasing within each line group
        new_grp = np.empty(total, dtype=bool)
        new_grp[0] = True
        np.not_equal(sl[1:], sl[:-1], out=new_grp[1:])
        g_start = np.flatnonzero(new_grp)
        g_end = np.empty(len(g_start), dtype=np.int64)
        g_end[:-1] = g_start[1:]
        g_end[-1] = total
        counts = g_end - g_start
        lines = self._lines
        for line_no, cnt, first, last in zip(
            sl[g_start].tolist(),
            counts.tolist(),
            st[g_start].tolist(),
            st[g_end - 1].tolist(),
        ):
            rec = lines.get(line_no)
            if rec is None:
                lines[line_no] = [cnt, first, last]
            else:
                rec[0] += cnt
                rec[2] = last

    # -- results -------------------------------------------------------------

    def records(self) -> List[LineRecord]:
        """Per-line records, in line-number order."""
        return [
            LineRecord(line_no, acc, first, last)
            for line_no, (acc, first, last) in sorted(self._lines.items())
        ]

    def reuse_breakdown(self) -> Dict[str, int]:
        """Bucketed counts of per-line re-use (Figure 12's bars)."""
        counts = np.array(
            [rec[0] - 1 for rec in self._lines.values()], dtype=np.int64
        )
        buckets = bucketise_counts(counts)
        return {
            label: int(count) for label, count in zip(REUSE_BUCKET_LABELS, buckets)
        }

    @property
    def n_lines(self) -> int:
        return len(self._lines)

    def record_telemetry(self, telemetry) -> None:
        """Publish this mode's footprint (lines shadowed, clock) once."""
        telemetry.gauge("linegrain.lines").set(len(self._lines))
        telemetry.gauge("linegrain.line_size").set(self.line_size)
        telemetry.counter("linegrain.time").inc(self.time)
