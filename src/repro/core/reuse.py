"""Re-use statistics: per-function lifetime windows and per-byte counts.

Definitions from the paper:

* *Re-use count* of a byte: the number of non-unique accesses to it, i.e.
  re-reads by a call that already read it (Table I, section II-A).
* *Re-use lifetime*: "the time between the first and last read of a single
  data byte within a function call" (section IV-B), with retired
  instructions as the architecture-independent proxy for time.

A *window* is one byte's read activity within one function call.  When a
window closes (the byte is read by a different call, is overwritten, is
evicted under the memory limit, or the program ends), a window that saw at
least one re-read contributes its lifetime to the reading context's
statistics and histogram (Figures 9-11); the byte's accumulated re-use count
feeds the global re-use distribution (Figure 8).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "REUSE_BUCKET_BOUNDS",
    "REUSE_BUCKET_LABELS",
    "FnReuse",
    "ReuseStats",
    "bucketise_counts",
]

#: Bucket upper bounds (exclusive) for per-byte re-use counts; the last
#: bucket is unbounded.  Figure 8 groups these as {0, 1-9, >9}; Figure 12's
#: line mode uses all of {<10, <100, <1000, <10000, >10000}.
REUSE_BUCKET_BOUNDS: Tuple[int, ...] = (1, 10, 100, 1000, 10000)
REUSE_BUCKET_LABELS: Tuple[str, ...] = (
    "0",
    "1-9",
    "10-99",
    "100-999",
    "1000-9999",
    ">=10000",
)


def bucketise_counts(counts: np.ndarray) -> np.ndarray:
    """Histogram an array of per-byte re-use counts into the fixed buckets."""
    result = np.zeros(len(REUSE_BUCKET_BOUNDS) + 1, dtype=np.int64)
    if len(counts):
        idx = np.searchsorted(np.asarray(REUSE_BUCKET_BOUNDS), counts, side="right")
        np.add.at(result, idx, 1)
    return result


@dataclass
class FnReuse:
    """Re-use aggregate of one calling context."""

    #: Number of closed windows in which the byte was re-used at least once.
    reused_windows: int = 0
    #: Sum of lifetimes of those windows (instruction-count units).
    lifetime_sum: int = 0
    #: Total re-reads attributed to this context.
    reuse_accesses: int = 0
    #: lifetime-bin -> window count; bin = lifetime // bin_size.
    histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def average_lifetime(self) -> float:
        """Average re-use lifetime of a re-used byte (Figure 9)."""
        if not self.reused_windows:
            return 0.0
        return self.lifetime_sum / self.reused_windows


class ReuseStats:
    """All re-use output of a Sigil run (reuse mode)."""

    def __init__(self, histogram_bin_size: int = 1000):
        self.bin_size = histogram_bin_size
        self.per_fn: Dict[int, FnReuse] = {}
        #: Global per-byte re-use count distribution (Figure 8's source).
        self.byte_buckets = np.zeros(len(REUSE_BUCKET_BOUNDS) + 1, dtype=np.int64)

    def fn(self, ctx_id: int) -> FnReuse:
        stats = self.per_fn.get(ctx_id)
        if stats is None:
            stats = FnReuse()
            self.per_fn[ctx_id] = stats
        return stats

    # -- window finalisation ---------------------------------------------

    def add_windows(self, ctx: int, bin_no: int, count: int, lifetime_sum: int) -> None:
        """Count ``count`` closed re-used windows of ``ctx`` in one lifetime
        bin, whose lifetimes sum to ``lifetime_sum``."""
        stats = self.fn(ctx)
        stats.reused_windows += count
        stats.lifetime_sum += lifetime_sum
        stats.histogram[bin_no] = stats.histogram.get(bin_no, 0) + count

    def retire_run(self, reuse_count: int, n: int) -> None:
        """Fold ``n`` dead data bytes that share one re-use count into the
        global distribution: their value was overwritten or evicted, or the
        run ended."""
        self.byte_buckets[bisect_right(REUSE_BUCKET_BOUNDS, reuse_count)] += n

    # -- reporting -----------------------------------------------------------

    def byte_breakdown(self) -> Dict[str, int]:
        """Label -> byte count, over all retired data bytes."""
        return {
            label: int(count)
            for label, count in zip(REUSE_BUCKET_LABELS, self.byte_buckets)
        }

    def fn_histogram(self, ctx_id: int) -> List[Tuple[int, int]]:
        """Sorted (lifetime_bin_start, window_count) pairs for one context."""
        stats = self.per_fn.get(ctx_id)
        if stats is None:
            return []
        return sorted(
            (bin_no * self.bin_size, count) for bin_no, count in stats.histogram.items()
        )
