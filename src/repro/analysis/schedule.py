"""Schedule dependency chains onto a fixed number of cores.

The paper closes its critical-path study with the scheduling application:
"The functions in parallel paths in a program can be mapped onto multiple
cores such that dependencies are respected.  A software developer may have a
fixed number of scheduling slots based on the number of available cores.
The developer can map dependency chains onto these slots so as to minimize
communication between slots and balance the load among them." (section IV-C)

This module implements that mapping as a classic list scheduler over the
event-mode segment DAG: segments become ready when all predecessors have
finished; ready segments are dispatched to the earliest-free core, longest
critical-path-to-exit first (the standard HLFET heuristic).  The resulting
makespan interpolates between the serial length (1 core) and the critical
path (unbounded cores), giving the *achievable* speedup curve below
Figure 13's theoretical limit.

Every event-log form takes the same path into the scheduler: one
:func:`~repro.analysis.streaming.stream_resolved` pass over the log's
chunks yields the DAG's successor lists in CSR form, ranked once, in
reverse topological order (data edges of threaded logs may point from a
younger segment to an older one, so ids are not a topological order);
every core count reuses both.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
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


@dataclass
class ScheduleResult:
    """Outcome of list-scheduling an event log onto ``n_cores`` slots."""

    n_cores: int
    makespan: int
    serial_length: int
    #: segment id -> (core, start_time)
    placement: Dict[int, Tuple[int, int]]
    #: Bytes moved between segments placed on different cores.
    cross_core_bytes: int

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
    """The segment DAG, ranked, in the form the dispatch loop walks.

    Segment ``i``'s successors are ``succ[ptr[i]:ptr[i + 1]]`` (one entry
    per edge, so parallel edges repeat); ``priority`` holds the HLFET
    bottom levels; ``data`` keeps the data-edge rows for the cross-core
    byte count.
    """

    __slots__ = ("ops", "ptr", "succ", "in_degree", "priority", "data",
                 "serial_length")

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
        self.ops: List[int] = ops.tolist()
        self.serial_length = int(ops.sum())
        self.ptr: List[int] = np.concatenate(
            ([0], np.cumsum(np.bincount(src, minlength=n)))).tolist()
        self.succ: List[int] = dst[np.argsort(src, kind="stable")].tolist()
        self.in_degree = np.bincount(dst, minlength=n)
        self.data = np.concatenate(data)
        self.priority = self._bottom_levels()

    def _bottom_levels(self) -> List[int]:
        """Critical-path-to-exit length per segment (the HLFET priority).

        Kahn's algorithm gives a topological order; the levels are then
        settled in its reverse, each from its successors' final levels.
        """
        ops, ptr, succ = self.ops, self.ptr, self.succ
        pending = self.in_degree.tolist()
        order = np.flatnonzero(self.in_degree == 0).tolist()
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


def schedule_events(events: EventSource, n_cores: int) -> ScheduleResult:
    """List-schedule the segment DAG onto ``n_cores`` identical cores.

    ``events`` is any form :func:`~repro.analysis.streaming.as_chunk_source`
    accepts.  The ready heap orders by (priority, segment id) and the core
    heap by (free time, core index), both total orders, so neither
    chunking nor edge arrival order can change the schedule.  Raises
    :class:`ValueError` if the log's edges close a dependency cycle.
    """
    return _schedule_dag(_SegmentDag(events), n_cores)


def _schedule_dag(dag: _SegmentDag, n_cores: int) -> ScheduleResult:
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    ops, ptr, succ, priority = dag.ops, dag.ptr, dag.succ, dag.priority
    n = len(ops)
    in_degree = dag.in_degree.tolist()
    data_ready = [0] * n
    core_of = [0] * n
    placement: Dict[int, Tuple[int, int]] = {}
    cores = [(0, c) for c in range(n_cores)]  # (free time, core): a heap
    ready = [(-priority[i], i) for i in range(n) if not in_degree[i]]
    heapq.heapify(ready)
    pop, push, replace = heapq.heappop, heapq.heappush, heapq.heapreplace
    makespan = 0
    while ready:
        _, i = pop(ready)
        free, core = cores[0]
        start = data_ready[i]
        if free > start:
            start = free
        end = start + ops[i]
        replace(cores, (end, core))
        if end > makespan:
            makespan = end
        core_of[i] = core
        placement[i] = (core, start)
        for s in succ[ptr[i]:ptr[i + 1]]:
            if end > data_ready[s]:
                data_ready[s] = end
            in_degree[s] -= 1
            if not in_degree[s]:
                push(ready, (-priority[s], s))

    on_core = np.asarray(core_of, dtype=np.int64)
    data = dag.data
    split = on_core[data["src"]] != on_core[data["dst"]]
    return ScheduleResult(
        n_cores=n_cores,
        makespan=makespan,
        serial_length=dag.serial_length,
        placement=placement,
        cross_core_bytes=int(data["bytes"][split].sum()),
    )


def speedup_curve(
    events: EventSource, cores: Optional[List[int]] = None
) -> List[ScheduleResult]:
    """Schedule for a range of core counts (default 1, 2, 4, ... 32).

    The DAG is built and ranked once, in one pass over the log, and
    dispatched per core count.
    """
    if cores is None:
        cores = [1, 2, 4, 8, 16, 32]
    dag = _SegmentDag(events)
    return [_schedule_dag(dag, k) for k in cores]
