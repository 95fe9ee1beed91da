"""Schedule dependency chains onto a fixed number of cores.

The paper closes its critical-path study with the scheduling application:
"The functions in parallel paths in a program can be mapped onto multiple
cores such that dependencies are respected.  A software developer may have a
fixed number of scheduling slots based on the number of available cores.
The developer can map dependency chains onto these slots so as to minimize
communication between slots and balance the load among them." (section IV-C)

This module implements that mapping as a classic list scheduler over the
event-mode segment DAG: a segment becomes ready once all its predecessors
have been dispatched; the ready segment with the longest
critical-path-to-exit goes first (the standard HLFET heuristic), onto the
earliest-free core, starting once that core is free and its predecessors
have finished.  The resulting makespan interpolates between the serial
length (1 core) and the critical path (unbounded cores), giving the
*achievable* speedup curve below Figure 13's theoretical limit.

Because readiness waits on dispatch, not on completion, the dispatch order
depends on the DAG alone, never on the core count.  Every event-log form
takes the same path into the scheduler: one
:func:`~repro.analysis.streaming.stream_resolved` pass over the log's
chunks yields the DAG's successor lists in CSR form, ranked once, in
reverse topological order (data edges of threaded logs may point from a
younger segment to an older one, so ids are not a topological order),
then ordered once by one ready-heap pass and renumbered in that order.
Each core count only places the segments, walking them by position.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.streaming import (
    EventSource,
    SegmentColumns,
    as_chunk_source,
    stream_resolved,
)
from repro.core.segments import DATA_EDGE_DTYPE

__all__ = ["ScheduleResult", "schedule_events", "speedup_curve"]


@dataclass(eq=False)
class ScheduleResult:
    """Outcome of list-scheduling an event log onto ``n_cores`` slots."""

    n_cores: int
    makespan: int
    serial_length: int
    #: Bytes moved between segments placed on different cores.
    cross_core_bytes: int
    #: Per segment id: the core it runs on (int64).
    core: np.ndarray
    #: Per segment id: its start time (int64).
    start: np.ndarray

    @cached_property
    def placement(self) -> Dict[int, Tuple[int, int]]:
        """segment id -> (core, start_time), built when first read."""
        return dict(enumerate(zip(self.core.tolist(), self.start.tolist())))

    def __eq__(self, other):
        if not isinstance(other, ScheduleResult):
            return NotImplemented
        return (
            (self.n_cores, self.makespan, self.serial_length,
             self.cross_core_bytes)
            == (other.n_cores, other.makespan, other.serial_length,
                other.cross_core_bytes)
            and np.array_equal(self.core, other.core)
            and np.array_equal(self.start, other.start)
        )

    @property
    def speedup(self) -> float:
        if self.makespan <= 0:
            return 1.0
        return self.serial_length / self.makespan

    @property
    def efficiency(self) -> float:
        """Speedup per core (1.0 = perfectly balanced, no idling)."""
        return self.speedup / self.n_cores if self.n_cores else 0.0


class _SegmentDag:
    """The segment DAG, ranked and renumbered in HLFET dispatch order.

    Position ``p`` holds segment ``order[p]``, which costs ``ops[p]``; the
    positions of its successors are ``succ[ptr[p]:ptr[p + 1]]`` (one entry
    per edge, so parallel edges repeat), all later than ``p``.  ``data``
    keeps the data-edge rows, by segment id, for the cross-core byte count.
    """

    __slots__ = ("order", "ops", "ptr", "succ", "data", "serial_length")

    def __init__(self, events: EventSource):
        ops, src, dst = ([np.empty(0, dtype=np.int64)] for _ in range(3))
        data = [np.empty(0, dtype=DATA_EDGE_DTYPE)]
        source = as_chunk_source(events)
        for table, rows in stream_resolved(source, SegmentColumns(())):
            if table == "segs":
                ops.append(rows["ops"])
                continue
            src.append(rows["src"])
            dst.append(rows["dst"])
            if table == "data":
                data.append(rows)
        ops, src, dst = map(np.concatenate, (ops, src, dst))
        n = len(ops)
        self.serial_length = int(ops.sum())
        self.data = np.concatenate(data)

        ptr = _csr_ptr(src, n)
        succ = dst[np.argsort(src, kind="stable")].tolist()
        in_degree = np.bincount(dst, minlength=n)
        levels = _bottom_levels(ops.tolist(), ptr, succ, in_degree)
        order = _dispatch_order(levels, ptr, succ, in_degree)

        self.order = np.asarray(order, dtype=np.int64)
        position = np.empty(n, dtype=np.int64)
        position[self.order] = np.arange(n)
        src, dst = position[src], position[dst]
        self.ops: List[int] = ops[self.order].tolist()
        self.ptr: List[int] = _csr_ptr(src, n)
        self.succ: List[int] = dst[np.argsort(src, kind="stable")].tolist()


def _csr_ptr(src: np.ndarray, n: int) -> List[int]:
    """CSR row offsets of edges grouped by ``src`` over ``n`` nodes."""
    return np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n)))
                          ).tolist()


def _bottom_levels(ops: List[int], ptr: List[int], succ: List[int],
                   in_degree: np.ndarray) -> List[int]:
    """Critical-path-to-exit length per segment (the HLFET priority).

    Kahn's algorithm gives a topological order; the levels are then
    settled in its reverse, each from its successors' final levels.
    """
    pending = in_degree.tolist()
    order = np.flatnonzero(in_degree == 0).tolist()
    for i in order:  # grows while it is walked
        for s in succ[ptr[i]:ptr[i + 1]]:
            pending[s] -= 1
            if not pending[s]:
                order.append(s)
    if len(order) != len(ops):
        raise ValueError("event log contains a dependency cycle")
    levels = [0] * len(ops)
    for i in reversed(order):
        tail = 0
        for s in succ[ptr[i]:ptr[i + 1]]:
            if levels[s] > tail:
                tail = levels[s]
        levels[i] = ops[i] + tail
    return levels


def _dispatch_order(levels: List[int], ptr: List[int], succ: List[int],
                    in_degree: np.ndarray) -> List[int]:
    """The segment ids in HLFET dispatch order.

    The ready heap pops the highest level first, the lower segment id on
    ties (a total order), and a segment joins it once its last predecessor
    is dispatched.
    """
    pending = in_degree.tolist()
    ready = [(-levels[i], i) for i in np.flatnonzero(in_degree == 0).tolist()]
    heapq.heapify(ready)
    pop, push = heapq.heappop, heapq.heappush
    order = []
    while ready:
        _, i = pop(ready)
        order.append(i)
        for s in succ[ptr[i]:ptr[i + 1]]:
            pending[s] -= 1
            if not pending[s]:
                push(ready, (-levels[s], s))
    return order


def schedule_events(events: EventSource, n_cores: int) -> ScheduleResult:
    """List-schedule the segment DAG onto ``n_cores`` identical cores.

    ``events`` is any form :func:`~repro.analysis.streaming.as_chunk_source`
    accepts.  The ready heap orders by (priority, segment id) and the core
    heap by (free time, core index), both total orders, so neither
    chunking nor edge arrival order can change the schedule.  Raises
    :class:`ValueError`, before reading the log, if ``n_cores`` is not a
    positive integer, and if the log's edges close a dependency cycle.
    """
    return speedup_curve(events, [n_cores])[0]


def _schedule_dag(dag: _SegmentDag, n_cores: int) -> ScheduleResult:
    """Place the segments, in dispatch order, onto ``n_cores`` cores."""
    ops, ptr, succ = dag.ops, dag.ptr, dag.succ
    n = len(ops)
    data_ready = [0] * n
    core_at = [0] * n
    start_at = [0] * n
    cores = [(0, c) for c in range(n_cores)]  # (free time, core): a heap
    replace = heapq.heapreplace
    for p in range(n):
        free, core = cores[0]
        start = data_ready[p]
        if free > start:
            start = free
        end = start + ops[p]
        replace(cores, (end, core))
        core_at[p] = core
        start_at[p] = start
        for s in succ[ptr[p]:ptr[p + 1]]:
            if end > data_ready[s]:
                data_ready[s] = end

    on_core = np.empty(n, dtype=np.int64)
    on_core[dag.order] = core_at
    starts = np.empty(n, dtype=np.int64)
    starts[dag.order] = start_at
    data = dag.data
    split = on_core[data["src"]] != on_core[data["dst"]]
    return ScheduleResult(
        n_cores=n_cores,
        makespan=max(free for free, _ in cores),
        serial_length=dag.serial_length,
        cross_core_bytes=int(data["bytes"][split].sum()),
        core=on_core,
        start=starts,
    )


def speedup_curve(
    events: EventSource, cores: Optional[List[int]] = None
) -> List[ScheduleResult]:
    """Schedule for a range of core counts (default 1, 2, 4, ... 32).

    Every core count is checked before the log is read.  The DAG is built,
    ranked and put in dispatch order once, in one pass over the log; each
    core count only places the segments in that order.
    """
    cores = [1, 2, 4, 8, 16, 32] if cores is None else list(cores)
    for k in cores:
        if not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(
                f"core counts must be positive integers, got {k!r}")
    dag = _SegmentDag(events)
    return [_schedule_dag(dag, k) for k in cores]
