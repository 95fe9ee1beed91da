"""Scheduler tests: the section IV-C mapping of chains onto cores."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis import analyze_critical_path, schedule_events, speedup_curve
from repro.core.segments import (
    DATA_EDGE_DTYPE,
    OC_EDGE_DTYPE,
    SEG_DTYPE,
    EventArrays,
)

from tests.eventlog import event_arrays


def chain_log(n: int, ops: int = 10, data=()) -> EventArrays:
    """n segments in one serial dependency chain, plus ``data`` rows."""
    return event_arrays(
        [(0, i, i, ops) for i in range(n)],
        [("order", i - 1, i) for i in range(1, n)],
        data,
    )


def fan_log(n: int, ops: int = 10) -> EventArrays:
    """A zero-cost root fanning out to n independent segments."""
    return event_arrays(
        [(0, 0, 0, 0)] + [(i, i, i, ops) for i in range(1, n + 1)],
        [("call", 0, i) for i in range(1, n + 1)],
    )


class TestScheduleBasics:
    def test_empty_log(self):
        result = schedule_events(event_arrays(), 4)
        assert result.makespan == 0
        assert result.speedup == 1.0

    def test_serial_chain_gains_nothing(self):
        result = schedule_events(chain_log(10), 8)
        assert result.makespan == 100
        assert result.speedup == pytest.approx(1.0)

    def test_fan_out_scales_with_cores(self):
        log = fan_log(8)
        assert schedule_events(log, 1).makespan == 80
        assert schedule_events(log, 2).makespan == 40
        assert schedule_events(log, 8).makespan == 10

    def test_one_core_equals_serial_length(self):
        log = fan_log(5)
        result = schedule_events(log, 1)
        assert result.makespan == result.serial_length

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            schedule_events(fan_log(2), 0)

    def test_bad_core_count_named_before_the_log_is_read(self, tmp_path):
        """A log that cannot be read shows that the check comes first."""
        missing = tmp_path / "missing.events"
        with pytest.raises(ValueError, match="got -1"):
            schedule_events(missing, -1)

    def test_bad_core_in_a_curve_named_before_the_log_is_read(self, tmp_path):
        missing = tmp_path / "missing.events"
        with pytest.raises(ValueError, match="got 0"):
            speedup_curve(missing, [2, 0])

    def test_placement_respects_dependencies(self):
        log = chain_log(6)
        result = schedule_events(log, 4)
        for i in range(1, 6):
            prev_core, prev_start = result.placement[i - 1]
            _, start = result.placement[i]
            assert start >= prev_start + 10

    def test_no_core_overlap(self):
        log = fan_log(16, ops=7)
        result = schedule_events(log, 3)
        busy = {}
        for seg_id, (core, start) in result.placement.items():
            ops = 7 if seg_id else 0
            for other_start, other_end in busy.get(core, []):
                assert start >= other_end or start + ops <= other_start
            busy.setdefault(core, []).append((start, start + ops))


class TestCrossCoreCommunication:
    def test_single_core_has_no_cross_traffic(self):
        log = chain_log(4, data=[(0, 3, 64)])
        assert schedule_events(log, 1).cross_core_bytes == 0

    def test_split_producer_consumer_counts(self):
        # Four independent heavy segments under a zero-cost root, with a
        # light data edge between the last two.
        log = event_arrays(
            [(0, 0, 0, 0)] + [(i, i, i, 50) for i in range(1, 5)],
            [("call", 0, i) for i in range(1, 5)],
            [(3, 4, 128)],
        )
        result = schedule_events(log, 4)
        src_core = result.placement[3][0]
        dst_core = result.placement[4][0]
        expected = 128 if src_core != dst_core else 0
        assert result.cross_core_bytes == expected


class TestAgainstTheoreticalLimit:
    def test_speedup_never_exceeds_parallelism_limit(self):
        """The achievable schedule is bounded by Figure 13's ratio."""
        from repro.core import SigilConfig, SigilProfiler
        from repro.workloads import get_workload

        for name in ("streamcluster", "fluidanimate"):
            profiler = SigilProfiler(SigilConfig(event_mode=True))
            get_workload(name, "simsmall").run(profiler)
            events = profiler.profile().events
            limit = analyze_critical_path(events).max_parallelism
            for result in speedup_curve(events, [1, 2, 8, 64]):
                assert result.speedup <= limit + 1e-9, name

    def test_speedup_monotone_in_cores(self):
        from repro.core import SigilConfig, SigilProfiler
        from repro.workloads import get_workload

        profiler = SigilProfiler(SigilConfig(event_mode=True))
        get_workload("libquantum", "simsmall").run(profiler)
        curve = speedup_curve(profiler.profile().events, [1, 2, 4, 8])
        speeds = [r.speedup for r in curve]
        assert all(b >= a - 1e-9 for a, b in zip(speeds, speeds[1:]))
        assert speeds[0] == pytest.approx(1.0)

    def test_efficiency_decreases(self):
        log = fan_log(8)
        r2 = schedule_events(log, 2)
        r16 = schedule_events(log, 16)
        assert r2.efficiency > r16.efficiency


class TestMalformedLogs:
    def test_dependency_cycle_rejected_by_the_priority_pass(self):
        """A backward data edge may close a cycle (0 -> 1 -> 2 -> 0); no
        segment on it can ever be ranked or become ready."""
        arrays = chain_log(3, data=[(2, 0, 8)])
        with pytest.raises(ValueError, match="dependency cycle"):
            schedule_events(arrays, 2)
        with pytest.raises(ValueError, match="dependency cycle"):
            speedup_curve(arrays, [1, 2])


def seeded_dag(n: int = 4000, n_edges: int = 12000,
               seed: int = 29) -> EventArrays:
    """A seeded random DAG of ``n`` segments.

    Every edge follows a random topological rank, so about half the data
    edges point from a younger segment to an older one, as threaded logs'
    do; order/call edges only point forward in id.  Op counts of 0-9 make
    equal HLFET levels common, so the segment-id tie-break decides much
    of the dispatch order.
    """
    rng = np.random.default_rng(seed)
    rank = rng.permutation(n)
    a = rng.integers(0, n - 1, n_edges)
    b = np.minimum(a + rng.integers(1, 64, n_edges), n - 1)
    forward = rank[a] < rank[b]
    src, dst = np.where(forward, a, b), np.where(forward, b, a)
    is_data = (src > dst) | (rng.random(n_edges) < 0.5)

    ids = np.arange(n, dtype=np.int64)
    segs = np.zeros(n, dtype=SEG_DTYPE)
    segs["ctx"] = ids % 37
    segs["call"] = ids
    segs["start"] = ids
    segs["ops"] = rng.integers(0, 10, n)
    segs["thread"] = ids % 4
    oc = np.zeros(int((~is_data).sum()), dtype=OC_EDGE_DTYPE)
    oc["kind"] = rng.integers(0, 2, len(oc))
    oc["src"], oc["dst"] = src[~is_data], dst[~is_data]
    data = np.zeros(int(is_data.sum()), dtype=DATA_EDGE_DTYPE)
    data["src"], data["dst"] = src[is_data], dst[is_data]
    data["bytes"] = rng.integers(1, 513, len(data))
    return EventArrays(segs=segs, ordercall=oc, data=data)


def test_large_log_schedule_is_pinned():
    """A log too large for the naive oracle: the whole curve -- makespan,
    cross-core bytes and every segment's core and start (int64) -- hashes
    to the digest of the scheduler that reran the ready heap for every
    core count."""
    log = seeded_dag()
    assert bool((log.data["src"] > log.data["dst"]).any())
    digest = hashlib.sha256()
    for result in speedup_curve(log, [1, 2, 3, 8]):
        digest.update(np.array([result.makespan, result.cross_core_bytes],
                               dtype=np.int64).tobytes())
        digest.update(result.core.tobytes())
        digest.update(result.start.tobytes())
    assert digest.hexdigest() == (
        "49b87056909f11ac06c4911971018f409ee8e499ed7626bc0d6c5c935c1cc650"
    )
