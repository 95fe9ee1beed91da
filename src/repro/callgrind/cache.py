"""Set-associative cache simulator, after Callgrind's on-the-fly cache model.

Callgrind "performs on-the-fly cache simulations to determine the behavior of
the program"; its miss counts feed the cycle-estimation formula the paper
uses for the software-runtime side of the partitioning study.  We model a
data hierarchy (D1 backed by LL) with true-LRU sets, write-allocate, and
accesses that may straddle line boundaries.

Each set is an insertion-ordered dict of its resident line numbers in
recency order, least recently used first: a hit deletes the line and
re-inserts it at the end, and a miss into a full set evicts the first
entry.  Under LRU a line misses exactly when its per-set reuse distance is
at least ``assoc``, so this order is all the state a level needs.
:meth:`Cache.access_lines` is the one walk that applies the rule; the
hierarchy runs D1's walk over the touches and LL's walk over D1's misses,
which is exact because LL is touched only on a D1 miss and D1 never reads
LL's state.

The instruction side of Callgrind's model (I1) has no analogue here because
the substrates do not fetch encoded instructions from memory; the cycle
formula accounts for instruction count directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CacheConfig", "Cache", "CacheHierarchy", "AccessResult"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level (sizes in bytes)."""

    size: int = 32 * 1024
    assoc: int = 8
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.line_size <= 0 or self.line_size & (self.line_size - 1):
            raise ValueError("line_size must be a positive power of two")
        if self.assoc < 1:
            raise ValueError(f"assoc must be at least 1, got {self.assoc}")
        if self.size % (self.assoc * self.line_size):
            raise ValueError("size must be a multiple of assoc * line_size")
        n_sets = self.size // (self.assoc * self.line_size)
        if n_sets <= 0 or n_sets & (n_sets - 1):
            raise ValueError(
                "set count must be a positive power of two (size / (assoc * "
                f"line_size) = {n_sets}); indexing masks with n_sets - 1, so "
                "a non-power-of-two geometry would silently alias sets"
            )

    @property
    def n_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)


class AccessResult(NamedTuple):
    """Miss counts incurred by one (possibly line-straddling) access.

    A named tuple rather than a dataclass: Callgrind's scalar path builds
    one per access, and a tuple is several times cheaper to build.
    """

    l1_misses: int
    ll_misses: int


class Cache:
    """One level of true-LRU set-associative cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.n_sets - 1
        # Per set: resident line numbers in recency order, LRU first.  A set
        # starts as the shared empty tuple and gets its dict on its first
        # miss: the LL alone has thousands of sets, and building them all up
        # front was a fixed cost of every collector.
        self._sets: list = [()] * config.n_sets
        self.accesses = 0
        self.misses = 0

    def access_lines(self, lines: Sequence[int]) -> List[int]:
        """Touch ``lines`` in order; returns the lines that missed, in order."""
        sets = self._sets
        mask = self._set_mask
        assoc = self.config.assoc
        missed: List[int] = []
        miss = missed.append
        for line in lines:
            ways = sets[line & mask]
            if line in ways:
                del ways[line]
            else:
                miss(line)
                if len(ways) >= assoc:
                    del ways[next(iter(ways))]
                elif not ways:
                    ways = sets[line & mask] = {}
            ways[line] = None
        self.accesses += len(lines)
        self.misses += len(missed)
        return missed

    def access_line(self, line_no: int) -> bool:
        """Touch one line; returns True on miss."""
        return bool(self.access_lines((line_no,)))

    def lines_of(self, addr: int, size: int) -> range:
        """Line numbers covered by an access of ``size`` bytes at ``addr``."""
        first = addr >> self._line_shift
        last = (addr + max(size, 1) - 1) >> self._line_shift
        return range(first, last + 1)


class CacheHierarchy:
    """D1 backed by a unified last-level cache, as Callgrind simulates."""

    def __init__(
        self,
        d1: Optional[CacheConfig] = None,
        ll: Optional[CacheConfig] = None,
    ):
        self.d1 = Cache(d1 if d1 is not None else CacheConfig())
        self.ll = Cache(
            ll if ll is not None else CacheConfig(size=8 * 1024 * 1024, assoc=16)
        )
        if self.d1.config.line_size != self.ll.config.line_size:
            raise ValueError("D1 and LL must share a line size")
        self._line_shift = self.d1._line_shift

    def access(self, addr: int, size: int) -> AccessResult:
        """Run one data access through D1 and its D1 misses through LL."""
        # Cache.lines_of, inlined: this is the scalar pipe's per-access path.
        shift = self._line_shift
        first = addr >> shift
        last = (addr + size - 1 if size > 1 else addr) >> shift
        missed = self.d1.access_lines(
            (first,) if first == last else range(first, last + 1)
        )
        ll_misses = len(self.ll.access_lines(missed)) if missed else 0
        return AccessResult(len(missed), ll_misses)

    def access_lines(self, lines: np.ndarray) -> Tuple[int, int]:
        """Run an in-order line-touch stream through the hierarchy in bulk.

        ``lines`` is the concatenated per-access line expansion of a batch
        (one entry per line touch, program order); returns ``(l1_misses,
        ll_misses)`` and folds all counters into the member caches, exactly
        as :meth:`access` over the same touches would.

        Consecutive touches of the same line are deduplicated first: after
        the first touch the line is resident and most-recently-used, so the
        repeats are guaranteed D1 hits that change neither LRU order nor
        miss counts (they still count as D1 accesses).  Real streams are
        dominated by these MRU repeats, so D1's walk runs over far fewer
        entries than the batch touched.
        """
        n_touches = len(lines)
        if n_touches > 1:
            keep = np.empty(n_touches, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            lines = lines[keep]
        self.d1.accesses += n_touches - len(lines)
        missed = self.d1.access_lines(lines.tolist())
        ll_misses = len(self.ll.access_lines(missed)) if missed else 0
        return (len(missed), ll_misses)
