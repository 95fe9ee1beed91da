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

Every event-log form takes the same path into the scheduler: the log is
wrapped as a :class:`~repro.analysis.streaming.ChunkSource`, and one
:func:`~repro.analysis.streaming.stream_resolved` pass fills the
scheduler's adjacency lists.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.streaming import (
    EventSource,
    SegmentColumns,
    as_chunk_source,
    stream_resolved,
)

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


def _bottom_levels(ops: List[int], succs: List[List[int]]) -> List[int]:
    """Critical-path-to-exit length per segment (the HLFET priority)."""
    n = len(ops)
    levels = [0] * n
    for i in range(n - 1, -1, -1):
        tail = max((levels[s] for s in succs[i]), default=0)
        levels[i] = ops[i] + tail
    return levels


class _SegmentDag:
    """Python-list DAG (ops, adjacency, data edges) ready for scheduling.

    The list scheduler is inherently O(n + E) in Python state (adjacency
    lists, a heap), so the DAG is built in that form straight from one
    resolved pass over the event log's chunks, without the columnar
    tables in between.
    """

    __slots__ = ("ops", "preds", "succs", "data_edges", "serial_length")

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.preds: List[List[int]] = []
        self.succs: List[List[int]] = []
        self.data_edges: List[Tuple[int, int, int]] = []
        self.serial_length = 0


def _build_dag(events: EventSource) -> _SegmentDag:
    dag = _SegmentDag()
    source = as_chunk_source(events)
    for table, rows in stream_resolved(source, SegmentColumns(())):
        if table == "segs":
            chunk_ops = rows["ops"].tolist()
            dag.ops.extend(chunk_ops)
            dag.serial_length += int(rows["ops"].sum())
            dag.preds.extend([] for _ in range(len(chunk_ops)))
            dag.succs.extend([] for _ in range(len(chunk_ops)))
        elif table == "oced":
            for src, dst in zip(rows["src"].tolist(), rows["dst"].tolist()):
                dag.preds[dst].append(src)
                dag.succs[src].append(dst)
        else:
            edges = [tuple(row) for row in rows.tolist()]
            dag.data_edges.extend(edges)
            for src, dst, _ in edges:
                dag.preds[dst].append(src)
                dag.succs[src].append(dst)
    return dag


def schedule_events(events: EventSource, n_cores: int) -> ScheduleResult:
    """List-schedule the segment DAG onto ``n_cores`` identical cores.

    ``events`` is any form :func:`~repro.analysis.streaming.as_chunk_source`
    accepts; its chunks stream straight into the scheduler's adjacency
    lists.  The ready heap orders by (priority, segment id), a total
    order, so neither chunking nor edge arrival order can change the
    schedule.
    """
    return _schedule_dag(_build_dag(events), n_cores)


def _schedule_dag(dag: _SegmentDag, n_cores: int) -> ScheduleResult:
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    n = len(dag.ops)
    if n == 0:
        return ScheduleResult(n_cores, 0, 0, {}, 0)

    ops = dag.ops
    preds = dag.preds
    succs = dag.succs
    data_edges = dag.data_edges

    priority = _bottom_levels(ops, succs)
    in_degree = [len(p) for p in preds]
    finish = [0] * n
    placement: Dict[int, Tuple[int, int]] = {}
    core_free = [0] * n_cores

    # Ready heap: (-priority, seg_id); earliest data-ready time per segment.
    ready: List[Tuple[int, int]] = []
    data_ready = [0] * n
    for i in range(n):
        if in_degree[i] == 0:
            heapq.heappush(ready, (-priority[i], i))

    scheduled = 0
    while ready:
        _, i = heapq.heappop(ready)
        # Pick the core that lets the segment start earliest.
        core = min(range(n_cores), key=core_free.__getitem__)
        start = max(core_free[core], data_ready[i])
        end = start + ops[i]
        core_free[core] = end
        finish[i] = end
        placement[i] = (core, start)
        scheduled += 1
        for s in succs[i]:
            data_ready[s] = max(data_ready[s], end)
            in_degree[s] -= 1
            if in_degree[s] == 0:
                heapq.heappush(ready, (-priority[s], s))

    if scheduled != n:  # pragma: no cover - defensive (DAG guaranteed)
        raise ValueError("event log contains a dependency cycle")

    cross = sum(
        nbytes
        for src, dst, nbytes in data_edges
        if placement[src][0] != placement[dst][0]
    )
    return ScheduleResult(
        n_cores=n_cores,
        makespan=max(finish),
        serial_length=dag.serial_length,
        placement=placement,
        cross_core_bytes=cross,
    )


def speedup_curve(
    events: EventSource, cores: Optional[List[int]] = None
) -> List[ScheduleResult]:
    """Schedule for a range of core counts (default 1, 2, 4, ... 32).

    The DAG is built once, in one pass over the log, and rescheduled per
    core count.
    """
    if cores is None:
        cores = [1, 2, 4, 8, 16, 32]
    dag = _build_dag(events)
    return [_schedule_dag(dag, k) for k in cores]
