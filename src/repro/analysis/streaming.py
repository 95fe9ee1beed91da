"""Chunk-at-a-time consumption of event logs: the one analysis input.

The v2 binary format (:mod:`repro.io.eventbin`) streams to disk in
length-prefixed chunks; this module is the reading counterpart every
event-log analysis builds on, so a 100M-segment log is analysed without
ever materialising its full :class:`~repro.core.segments.EventArrays`
tables, and an in-memory log takes the same code path.  The pieces:

* :class:`ChunkSource` -- one re-iterable handle over an event log in *any*
  form (path, raw bytes, ``EventArrays``).  Only its constructor looks at
  the input's type; analyses see chunks.  File and byte sources are v2
  and stream through :func:`~repro.io.eventbin.iter_event_chunks`
  (optionally filtered by table, skipping the decode of unwanted chunks);
  in-memory forms are sliced into synthetic chunks, so the
  chunk-size-invariance property tests cover both.
* :class:`SegmentColumns` -- growing per-segment scalar columns (a few
  bytes per segment: ``start``, ``thread``, ...), the only state an
  analysis keeps that grows with the log.  Everything else is bounded by
  the chunk size.
* :func:`stream_resolved` -- yields chunks with edge rows *held back* until
  the segment rows their endpoints reference have arrived (a streaming
  writer may flush an edge chunk before the segment chunk it points into),
  validating each chunk with :func:`~repro.core.segments.first_violation`;
  a bad row is named by its table index and, for a file or byte source,
  by the chunk and byte offset :meth:`ChunkSource.locate` finds for it.
* :class:`EdgeCursor` -- one edge table consumed as a run sorted by
  destination, for the critical-path DP, which merges edges by
  destination.  Every writer in this codebase emits edges with
  non-decreasing ``dst`` (an edge's destination is always the newest
  segment); a cursor that observes a violation raises
  :class:`UnsortedEdges`, and the DP then sorts the tables once and
  reruns rather than compute a wrong answer.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.segments import EventArrays, first_violation
from repro.io.eventbin import DEFAULT_CHUNK_ROWS, iter_event_chunks, locate_row

__all__ = [
    "ChunkSource",
    "EdgeCursor",
    "GrowingColumn",
    "SegmentColumns",
    "UnsortedEdges",
    "as_chunk_source",
    "check_chunk",
    "stream_resolved",
]

#: Sources every streaming analysis accepts.
EventSource = Union["ChunkSource", EventArrays, str, Path, bytes, bytearray]


class UnsortedEdges(ValueError):
    """An edge table was not in non-decreasing destination order.

    Every writer in this codebase produces dst-sorted tables (an edge's
    destination is the newest segment when the edge is recorded), but the
    format does not *require* it; a cursor that detects a violation raises
    this so the caller can sort the tables and start again.
    """


class ChunkSource:
    """A re-iterable source of ``(table, rows)`` chunks over an event log.

    Wraps any event-log form behind one interface; :meth:`chunks` starts a
    fresh pass each call, which is what lets multi-cursor analyses (the
    critical-path merge) run several bounded-memory passes over one file
    instead of loading it.
    """

    def __init__(
        self,
        source: EventSource,
        *,
        chunk_rows: Optional[int] = None,
    ):
        self.chunk_rows = int(chunk_rows or DEFAULT_CHUNK_ROWS)
        if self.chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self._arrays: Optional[EventArrays] = None
        self._bytes: Optional[bytes] = None
        self._path: Optional[Path] = None
        if isinstance(source, ChunkSource):
            self._arrays = source._arrays
            self._bytes = source._bytes
            self._path = source._path
        elif isinstance(source, EventArrays):
            self._arrays = source
        elif isinstance(source, (bytes, bytearray)):
            self._bytes = bytes(source)
        elif hasattr(source, "read"):
            # A one-shot stream cannot be re-iterated; buffer it.
            self._bytes = source.read()  # type: ignore[union-attr]
        else:
            self._path = Path(source)

    def chunks(
        self, tables: Optional[Tuple[str, ...]] = None
    ) -> Iterator[Tuple[str, np.ndarray]]:
        """One fresh pass of ``(table, rows)`` chunks (optionally filtered)."""
        if self._arrays is not None:
            return self._array_chunks(tables)
        if self._bytes is not None:
            return iter_event_chunks(io.BytesIO(self._bytes), tables=tables)
        assert self._path is not None
        return iter_event_chunks(self._path, tables=tables)

    def _array_chunks(
        self, tables: Optional[Tuple[str, ...]]
    ) -> Iterator[Tuple[str, np.ndarray]]:
        arrays = self._arrays
        assert arrays is not None
        for name, table in (
            ("segs", arrays.segs),
            ("oced", arrays.ordercall),
            ("data", arrays.data),
        ):
            if tables is not None and name not in tables:
                continue
            for start in range(0, len(table), self.chunk_rows):
                yield name, table[start : start + self.chunk_rows]

    def locate(self, table: str, row: int) -> str:
        """Name ``table``'s row ``row`` as ``load_event_arrays`` errors do.

        ``"segs row 5, in chunk 2 at byte 86"`` for a file or byte source
        (found by a second pass, so only a failed check pays for it);
        just ``"segs row 5"`` for an in-memory log.
        """
        where = None
        if self._bytes is not None:
            where = locate_row(io.BytesIO(self._bytes), table, row)
        elif self._path is not None:
            where = locate_row(self._path, table, row)
        return f"{table} row {row}" + (f", in {where}" if where else "")


def check_chunk(source, table: str, rows: np.ndarray, first_row: int) -> None:
    """:func:`~repro.core.segments.check_rows` for a streamed chunk.

    ``first_row`` is the table index of ``rows[0]``; a bad row is named
    through ``source.locate`` when ``source`` is a :class:`ChunkSource`.
    """
    bad = first_violation(table, rows)
    if bad is not None:
        row, message = bad
        row += first_row
        where = (
            source.locate(table, row)
            if isinstance(source, ChunkSource)
            else f"{table} row {row}"
        )
        raise ValueError(f"{message} ({where})")


def as_chunk_source(
    source: EventSource, *, chunk_rows: Optional[int] = None
) -> ChunkSource:
    """Coerce any event-log form to a :class:`ChunkSource` (idempotent)."""
    if isinstance(source, ChunkSource) and chunk_rows is None:
        return source
    return ChunkSource(source, chunk_rows=chunk_rows)


# ---------------------------------------------------------------------------
# growing per-segment state
# ---------------------------------------------------------------------------


class GrowingColumn:
    """An append-only NumPy array with amortised doubling growth.

    The per-segment scalar state of a streaming analysis (8 bytes per
    segment per column) -- deliberately *not* a Python list, whose boxed
    ints cost ~10x the memory at log scale.
    """

    __slots__ = ("_buf", "n")

    def __init__(self, dtype=np.int64, capacity: int = 1024):
        self._buf = np.empty(capacity, dtype=dtype)
        self.n = 0

    def append(self, values: np.ndarray) -> None:
        m = len(values)
        need = self.n + m
        if need > len(self._buf):
            grown = np.empty(
                max(need, 2 * len(self._buf)), dtype=self._buf.dtype
            )
            grown[: self.n] = self._buf[: self.n]
            self._buf = grown
        self._buf[self.n : need] = values
        self.n = need

    def view(self) -> np.ndarray:
        """The filled prefix (a view; do not append while holding it)."""
        return self._buf[: self.n]


class SegmentColumns:
    """Growing scalar columns over the segments seen so far.

    ``fields`` selects which :data:`~repro.core.segments.SEG_DTYPE` columns
    to keep (only what the analysis needs -- memory is ``8 * n_fields``
    bytes per segment); the pseudo-field ``"end"`` stores
    ``start + ops`` (a producer segment's completion time).
    """

    def __init__(self, fields: Sequence[str] = ()):
        self.fields = tuple(fields)
        self._cols = {name: GrowingColumn() for name in self.fields}
        self.n = 0

    def append(self, segs: np.ndarray) -> None:
        for name, col in self._cols.items():
            if name == "end":
                col.append(segs["start"] + segs["ops"])
            else:
                col.append(segs[name])
        self.n += len(segs)

    def col(self, name: str) -> np.ndarray:
        return self._cols[name].view()


# ---------------------------------------------------------------------------
# resolved chunk stream
# ---------------------------------------------------------------------------


def stream_resolved(
    source: ChunkSource,
    cols: SegmentColumns,
    *,
    tables: Optional[Tuple[str, ...]] = None,
    telemetry=None,
) -> Iterator[Tuple[str, np.ndarray]]:
    """One validated pass with edge rows resolved against ``cols``.

    Yields ``("segs", rows)`` after appending the rows to ``cols`` and
    ``("oced"/"data", rows)`` only once *both* endpoints of those edges
    have a segment row in ``cols`` (``max(src, dst) < cols.n`` -- backward
    data edges, which threaded logs produce, resolve once the younger
    endpoint arrives).  A streaming writer can flush an edge chunk up to
    one chunk ahead of the segment chunk it references, so the holding
    buffer is bounded by the writer's chunk size.  Every chunk passes
    :func:`check_chunk`; the dangling-endpoint check
    happens at the end of the pass, and the forward rule for data edges,
    which only the critical path needs, in :class:`EdgeCursor`.

    With ``telemetry``, the ``analysis.stream.peak_chunk_bytes`` gauge
    tracks the largest decoded chunk seen (the working-set bound of the
    pass).
    """
    gauge = (
        telemetry.gauge("analysis.stream.peak_chunk_bytes")
        if telemetry is not None
        else None
    )
    pending: Dict[str, List[np.ndarray]] = {"oced": [], "data": []}
    seen = {"segs": 0, "oced": 0, "data": 0}

    def split_ready(table: str, rows: np.ndarray):
        """Yield the resolvable prefix of ``rows``; buffer the rest."""
        mask = np.maximum(rows["src"], rows["dst"]) < cols.n
        if bool(mask.all()):
            return rows, None
        if not bool(mask.any()):
            return None, rows
        return rows[mask], rows[~mask]

    for table, rows in source.chunks(tables):
        if gauge is not None:
            gauge.set_max(int(rows.nbytes))
        if not len(rows):
            continue
        check_chunk(source, table, rows, seen[table])
        seen[table] += len(rows)
        if table == "segs":
            cols.append(rows)
            yield "segs", rows
            for name in ("oced", "data"):
                held, pending[name] = pending[name], []
                for block in held:
                    ready, hold = split_ready(name, block)
                    if ready is not None and len(ready):
                        yield name, ready
                    if hold is not None and len(hold):
                        pending[name].append(hold)
        else:
            ready, hold = split_ready(table, rows)
            if ready is not None and len(ready):
                yield table, ready
            if hold is not None and len(hold):
                pending[table].append(hold)
    for name in ("oced", "data"):
        if pending[name]:
            label = "order/call" if name == "oced" else "data"
            raise ValueError(f"{label} edge endpoints out of range")


# ---------------------------------------------------------------------------
# dst-ordered edge cursors (critical-path merge)
# ---------------------------------------------------------------------------


class EdgeCursor:
    """Consume one edge table's chunks as a run sorted by destination.

    ``take_below(hi)`` hands back every remaining edge with ``dst < hi``
    in table order; successive calls with non-decreasing ``hi`` walk the
    table once in bounded memory.  Raises :class:`UnsortedEdges` when the
    table violates the non-decreasing-``dst`` invariant.  ``source``, the
    :class:`ChunkSource` the chunks come from in table order, lets a bad
    row's error name where it lies.
    """

    def __init__(
        self,
        chunks: Iterator[Tuple[str, np.ndarray]],
        table: str,
        source: Optional[ChunkSource] = None,
    ):
        self._chunks = chunks
        self._table = table
        self._source = source
        self._rows_seen = 0
        self._src = np.empty(0, dtype=np.int64)
        self._dst = np.empty(0, dtype=np.int64)
        self._pos = 0
        self._last_dst = -1  # max dst of fully loaded chunks
        self._exhausted = False

    def _advance(self) -> bool:
        """Load the next non-empty chunk; False at end of table."""
        if self._exhausted:
            return False
        for _table, rows in self._chunks:
            if not len(rows):
                continue
            check_chunk(self._source, self._table, rows, self._rows_seen)
            self._rows_seen += len(rows)
            # The DP needs data edges forward too.
            forward = rows["src"] < rows["dst"]
            if not bool(forward.all()):
                bad = int(np.argmax(~forward))
                raise ValueError(
                    "event log is not topologically ordered: "
                    f"{int(rows['src'][bad])} -> {int(rows['dst'][bad])}"
                )
            dst = np.ascontiguousarray(rows["dst"])
            if int(dst[0]) < self._last_dst or (
                len(dst) > 1 and bool((np.diff(dst) < 0).any())
            ):
                raise UnsortedEdges(
                    f"{self._table} edges are not sorted by destination"
                )
            self._src = np.ascontiguousarray(rows["src"])
            self._dst = dst
            self._pos = 0
            self._last_dst = int(dst[-1])
            return True
        self._exhausted = True
        return False

    def take_below(self, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """All remaining ``(src, dst)`` with ``dst < hi``, in table order."""
        out_src: List[np.ndarray] = []
        out_dst: List[np.ndarray] = []
        while True:
            if self._pos >= len(self._dst):
                if not self._advance():
                    break
            cut = int(
                np.searchsorted(self._dst[self._pos :], hi, side="left")
            ) + self._pos
            if cut > self._pos:
                out_src.append(self._src[self._pos : cut])
                out_dst.append(self._dst[self._pos : cut])
                self._pos = cut
            if cut < len(self._dst):
                break  # the rest of this chunk is >= hi
        if not out_src:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if len(out_src) == 1:
            return out_src[0], out_dst[0]
        return np.concatenate(out_src), np.concatenate(out_dst)

    def require_empty(self, n_segments: int) -> None:
        """Assert no edges remain (any leftover points past the last segment)."""
        if self._pos < len(self._dst) or self._advance():
            label = "order/call" if self._table == "oced" else "data"
            raise ValueError(f"{label} edge endpoints out of range")
        del n_segments
