"""Critical-path analysis over event files (sections II-C2 and IV-C).

"We can post-process these files to separate the dependent chains of events
in the program.  These dependent chains reveal the critical path of an
application and the theoretical limits of scheduling parallel tasks."

Nodes are function-call segments; a node's self-cost is the operations
performed in the fragment, its inclusive cost "the sum of the self-costs of
the longest chain from 'main' to that node" (Figure 3).  Functions are
modeled as non-blocking -- "calls to child functions can be non-blocking and
are only limited by their data dependencies" -- with conservative ordering
between fragments of the same call.

"The maximum theoretical function-level parallelism is the ratio of overall
serial length of the program to the critical path length." (Figure 13)

There is one longest-path DP, and it runs on a
:class:`~repro.analysis.streaming.ChunkSource`: every event-log form (an
in-memory log, a v2 file path, raw bytes) is wrapped as one, so in-memory
logs and files larger than RAM take the same code path.  The DP advances
one segment chunk at a time, takes the edges into that chunk from one
:class:`~repro.analysis.streaming.EdgeCursor` per edge table, and keeps 16
bytes of persistent state per segment.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.common.cct import ContextTree
from repro.core.segments import EventArrays, EventLog, Segment
from repro.analysis.streaming import (
    ChunkSource,
    EdgeCursor,
    EventSource,
    GrowingColumn,
    UnsortedEdges,
    as_chunk_source,
)

__all__ = ["CriticalPathResult", "analyze_critical_path", "events_to_dot"]


class CriticalPathResult:
    """Outcome of dependency-chain construction.

    ``serial_length`` is the sum of all segment self-costs (the program's
    serial length), ``critical_length`` the longest dependent chain in
    operations, ``inclusive`` the per-segment inclusive cost (longest chain
    from the start to it, an int64 array), and ``path`` the segments on
    the critical path in execution order.  ``path`` is built lazily: the
    result holds only the best-predecessor array until ``path`` is first
    touched, which backtracks and then replays the segment chunks to gather
    the path's rows.  On a million-segment log whose critical path covers
    most of the program, building one ``Segment`` object per path node
    costs more than the DP itself, and callers that only want the lengths
    (the parallelism limit, benchmark comparisons) never pay it.
    """

    def __init__(
        self,
        serial_length: int,
        critical_length: int,
        path: Optional[List[Segment]],
        inclusive: np.ndarray,
    ):
        self.serial_length = serial_length
        self.critical_length = critical_length
        self.inclusive = inclusive
        self._path = path
        self._source: Optional[ChunkSource] = None
        self._best_pred: Optional[np.ndarray] = None
        self._end = -1

    @classmethod
    def _deferred(
        cls,
        serial_length: int,
        critical_length: int,
        inclusive: np.ndarray,
        source: ChunkSource,
        best_pred: np.ndarray,
        end: int,
    ) -> "CriticalPathResult":
        result = cls(serial_length, critical_length, None, inclusive)
        result._source = source
        result._best_pred = best_pred
        result._end = end
        return result

    @property
    def path(self) -> List[Segment]:
        """Segments on the critical path, in execution order."""
        if self._path is None:
            assert self._best_pred is not None and self._source is not None
            path_ids = _backtrack(self._best_pred, self._end)
            self._best_pred = None
            self._path = _materialise_path(self._source, path_ids)
        return self._path

    @property
    def max_parallelism(self) -> float:
        """Figure 13's maximum speedup from function-level parallelism."""
        if self.critical_length <= 0:
            return 1.0
        return self.serial_length / self.critical_length

    def path_functions(self, tree: ContextTree) -> List[str]:
        """Distinct function names on the critical path, leaf to main order
        (the presentation used for streamcluster and fluidanimate in IV-C)."""
        names: List[str] = []
        seen = set()
        for seg in reversed(self.path):
            name = tree.node(seg.ctx_id).name
            if name != "<root>" and name not in seen:
                seen.add(name)
                names.append(name)
        return names


def _dot_escape(text: str) -> str:
    """Escape a string for use inside a double-quoted DOT label.

    Function names are arbitrary (demangled C++ carries ``<``, ``"`` and
    ``\\``; ``sys:`` pseudo-nodes carry whatever the syscall was called) --
    unescaped quotes or backslashes produce invalid Graphviz.
    """
    return text.replace("\\", "\\\\").replace('"', '\\"')


def events_to_dot(
    events: Union[EventLog, EventArrays],
    tree: Optional[ContextTree] = None,
    result: Optional[CriticalPathResult] = None,
    *,
    max_segments: int = 400,
) -> str:
    """Graphviz rendering of the dependency chains (Figure 3's picture).

    Nodes are function-call fragments labelled with self cost (and, when a
    :class:`CriticalPathResult` is supplied, the inclusive cost of the
    longest chain to them); the critical path is highlighted in bold/grey,
    matching the paper's presentation.  Large logs are truncated to the
    ``max_segments`` highest-cost segments plus everything on the path.
    """
    if isinstance(events, EventArrays):
        events = events.to_eventlog()
    result = result if result is not None else analyze_critical_path(events)
    on_path = {seg.seg_id for seg in result.path}
    keep = set(on_path)
    by_cost = sorted(events.segments, key=lambda s: s.ops, reverse=True)
    for seg in by_cost:
        if len(keep) >= max_segments:
            break
        keep.add(seg.seg_id)

    def label(seg: Segment) -> str:
        name = tree.node(seg.ctx_id).name if tree is not None else f"ctx{seg.ctx_id}"
        text = f"{_dot_escape(name)}\\nself: {seg.ops}"
        if len(result.inclusive):
            text += f"\\ncost = {result.inclusive[seg.seg_id]}"
        return text

    lines = ["digraph chains {", "  rankdir=TB;", "  node [shape=box];"]
    for seg in events.segments:
        if seg.seg_id not in keep:
            continue
        style = ' style=filled fillcolor="grey80"' if seg.seg_id in on_path else ""
        lines.append(f'  s{seg.seg_id} [label="{label(seg)}"{style}];')
    for edge in events.edges():
        if edge.src not in keep or edge.dst not in keep:
            continue
        attrs = []
        if edge.kind == "data":
            attrs.append(f'label="{edge.bytes}B"')
        if edge.kind == "order":
            attrs.append("style=dashed")
        if edge.src in on_path and edge.dst in on_path:
            attrs.append("penwidth=2.5")
        attr_text = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  s{edge.src} -> s{edge.dst}{attr_text};")
    lines.append("}")
    return "\n".join(lines)


def analyze_critical_path(
    events: EventSource,
    *,
    telemetry=None,
) -> CriticalPathResult:
    """Longest-path DP over the segment DAG.

    All edges point from an earlier segment to a later one (producers write
    before consumers read; calls and order edges follow time), so segments
    in id order are already topologically sorted, and one forward pass
    finalises each segment's inclusive cost from the final costs of its
    predecessors.

    ``events`` is any form :func:`~repro.analysis.streaming.as_chunk_source`
    accepts.  The pass needs each edge table in non-decreasing destination
    order, which every writer here produces (an edge's destination is the
    newest segment).  If a table is out of order, both edge tables are
    loaded, stable-sorted by destination once, and the same DP reruns;
    stable order keeps the tie-break.  Peak memory is the chunk size plus
    16 bytes per segment (plus the edge tables in that re-sort case).
    """
    source = as_chunk_source(events)
    phase = (
        telemetry.phase("critical_path")
        if telemetry is not None
        else contextlib.nullcontext()
    )
    gauge = (
        telemetry.gauge("analysis.stream.peak_chunk_bytes")
        if telemetry is not None
        else None
    )
    with phase:
        try:
            return _longest_paths(
                source, lambda table: source.chunks(tables=(table,)), gauge
            )
        except UnsortedEdges:
            return _longest_paths(
                source, lambda table: _dst_sorted(source, table), gauge
            )


def _dst_sorted(
    source: ChunkSource, table: str
) -> Iterator[Tuple[str, np.ndarray]]:
    """One edge table, loaded whole and stable-sorted by destination."""
    parts = [rows for _table, rows in source.chunks(tables=(table,))]
    if parts:
        rows = np.concatenate(parts)
        yield table, rows[np.argsort(rows["dst"], kind="stable")]


def _longest_paths(
    source: ChunkSource,
    edge_chunks: Callable[[str], Iterator[Tuple[str, np.ndarray]]],
    gauge,
) -> CriticalPathResult:
    """The DP of :func:`analyze_critical_path`, one segment chunk at a time.

    For the chunk ``[done, hi)`` both cursors hand over every remaining
    edge with ``dst < hi``.  One stable sort by ``dst`` makes each
    segment's predecessors a contiguous run, order/call rows first and then
    data rows, each in table order.  Costs are looked up in one list: a
    slot per segment of the chunk, then a slot per edge from an earlier
    chunk, whose final cost is gathered once up front.  A predecessor wins
    on ``>=``, so among equal costs the last one in that order is chosen
    and zero-cost prefix fragments (e.g. main before its first op) stay on
    the reported path.
    """
    inclusive = GrowingColumn()
    best_pred = GrowingColumn()
    oced = EdgeCursor(edge_chunks("oced"), "oced")
    data = EdgeCursor(edge_chunks("data"), "data")
    serial = 0
    done = 0
    for _table, segs in source.chunks(tables=("segs",)):
        m = len(segs)
        if not m:
            continue
        if gauge is not None:
            gauge.set_max(int(segs.nbytes))
        ops_col = segs["ops"]
        if int(ops_col.min()) < 0:
            raise ValueError("segment ops must be non-negative")
        serial += int(ops_col.sum())
        hi = done + m
        o_src, o_dst = oced.take_below(hi)
        d_src, d_dst = data.take_below(hi)
        dst = np.concatenate((o_dst, d_dst))
        src = np.concatenate((o_src, d_src))[np.argsort(dst, kind="stable")]
        counts = np.bincount(dst - done, minlength=m)
        earlier = src < done
        prev_ids = src[earlier]
        keys = src - done
        keys[earlier] = np.arange(m, m + len(prev_ids))
        # A lone predecessor is chosen outright; the loop settles the rest.
        win_bp = np.full(m, -1, dtype=np.int64)
        lone = counts == 1
        win_bp[lone] = keys[(np.cumsum(counts) - 1)[lone]]
        costs = ops_col.tolist()
        costs += inclusive.view()[prev_ids].tolist()
        keys = keys.tolist()
        ei = 0
        for j, c in enumerate(counts.tolist()):
            if c == 1:  # best predecessor already set above
                costs[j] += costs[keys[ei]]
                ei += 1
            elif c:
                best = 0
                chosen = -1
                for k in keys[ei : ei + c]:
                    v = costs[k]
                    if v >= best:
                        best = v
                        chosen = k
                costs[j] += best
                win_bp[j] = chosen
                ei += c
        slot_ids = np.concatenate((np.arange(done, hi), prev_ids))
        inclusive.append(np.fromiter(costs, np.int64, count=m))
        best_pred.append(np.where(win_bp >= 0, slot_ids[win_bp], -1))
        done = hi
    oced.require_empty(done)
    data.require_empty(done)

    inc = inclusive.view()
    if not done:
        return CriticalPathResult(0, 0, [], np.empty(0, dtype=np.int64))
    end = int(np.argmax(inc))  # the first maximum
    return CriticalPathResult._deferred(
        serial_length=serial,
        critical_length=int(inc[end]),
        inclusive=inc.copy(),
        source=source,
        best_pred=best_pred.view().copy(),
        end=end,
    )


def _backtrack(best_pred: np.ndarray, end: int) -> List[int]:
    """Walk best-predecessor links from ``end`` back to a root."""
    path_ids: List[int] = []
    cursor = end
    while cursor != -1:
        path_ids.append(cursor)
        cursor = int(best_pred[cursor])
    path_ids.reverse()
    return path_ids


def _materialise_path(
    source: ChunkSource, path_ids: List[int]
) -> List[Segment]:
    """Gather the path's segment rows in one more pass over the chunks.

    ``path_ids`` ascends (every best-predecessor link points backwards), so
    each segment chunk contributes one contiguous slice of the path,
    located with two binary searches -- the pass stays O(chunks) plus
    O(path) gathered rows, and only path nodes are ever built as objects.
    """
    if not path_ids:
        return []
    wanted = np.asarray(path_ids, dtype=np.int64)
    segments: List[Segment] = []
    done = 0
    for _table, segs in source.chunks(tables=("segs",)):
        m = len(segs)
        if not m:
            continue
        lo = int(np.searchsorted(wanted, done, side="left"))
        hi = int(np.searchsorted(wanted, done + m, side="left"))
        if hi > lo:
            sel = wanted[lo:hi] - done
            segments.extend(
                map(
                    Segment,
                    wanted[lo:hi].tolist(),
                    segs["ctx"][sel].tolist(),
                    segs["call"][sel].tolist(),
                    segs["start"][sel].tolist(),
                    segs["ops"][sel].tolist(),
                    segs["thread"][sel].tolist(),
                )
            )
        done += m
    if len(segments) != len(path_ids):
        raise ValueError("critical path refers to segments past the log end")
    return segments
