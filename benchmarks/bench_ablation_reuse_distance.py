"""Ablation: re-use distance analysis predicts cache behaviour.

Section IV-B3: per-line re-use "information can be used for re-use distance
analysis and to inform cache-replacement policies".  This bench computes
exact LRU stack-distance histograms (one platform-independent pass) and
validates their central use: the predicted miss-ratio curve matches a
simulated fully-associative LRU cache at every capacity, for real workloads.
"""

from __future__ import annotations

from _support import save_artifact
from repro.analysis import render_table
from repro.callgrind import Cache, CacheConfig
from repro.core import ReuseDistanceProfiler
from repro.trace.observer import BaseObserver
from repro.workloads import get_workload

CAPACITIES = (8, 64, 512, 4096)
LINE = 64


class _FullyAssocCacheObserver(BaseObserver):
    """Feeds every access through a fully-associative LRU cache."""

    def __init__(self, capacity_lines: int):
        self.cache = Cache(
            CacheConfig(size=capacity_lines * LINE, assoc=capacity_lines, line_size=LINE)
        )

    def _touch(self, addr: int, size: int) -> None:
        self.cache.access_lines(self.cache.lines_of(addr, size))

    def on_mem_read(self, addr: int, size: int) -> None:
        self._touch(addr, size)

    def on_mem_write(self, addr: int, size: int) -> None:
        self._touch(addr, size)


def _predicted(name: str) -> ReuseDistanceProfiler:
    profiler = ReuseDistanceProfiler(LINE)
    get_workload(name, "simsmall").run(profiler)
    return profiler


def _simulated_miss_ratio(name: str, capacity: int) -> float:
    observer = _FullyAssocCacheObserver(capacity)
    get_workload(name, "simsmall").run(observer)
    cache = observer.cache
    return cache.misses / cache.accesses if cache.accesses else 0.0


def test_ablation_reuse_distance(benchmark):
    benchmark.pedantic(lambda: _predicted("freqmine"), rounds=3, iterations=1)

    workloads = ("freqmine", "vips", "streamcluster")
    rows = []
    for name in workloads:
        profiler = _predicted(name)
        for capacity in CAPACITIES:
            predicted = profiler.miss_ratio(capacity)
            simulated = _simulated_miss_ratio(name, capacity)
            rows.append(
                (name, capacity, f"{predicted:.4f}", f"{simulated:.4f}")
            )
            # The defining equivalence: stack distance >= C iff LRU misses.
            assert predicted == simulated, (name, capacity)
    table = render_table(
        ["workload", "capacity_lines", "predicted_miss", "simulated_miss"],
        rows,
        title="Ablation: stack-distance MRC vs simulated fully-assoc LRU",
    )
    save_artifact("ablation_reuse_distance.txt", table)

    # MRC is monotone non-increasing in capacity.
    for name in workloads:
        profiler = _predicted(name)
        curve = [r for _, r in profiler.miss_ratio_curve(list(CAPACITIES))]
        assert curve == sorted(curve, reverse=True), name
