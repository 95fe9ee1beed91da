"""Event-mode output: the execution as a sequence of dependent events.

"Sigil can represent output data ... by recording a list of all of the data
transfers that occur.  In the latter representation, a program's essence can
be reconstructed as a sequence of dependent 'events'.  These events are
fragments of computation separated by data transfer edges." (section II-B)

A :class:`Segment` is one such fragment: a maximal interval during which a
single function call executes without an intervening call or return.  Every
function entry or resumption opens a new segment, implementing Figure 3's
"we add the second occurrence of A as a separate node although it belongs to
the same call".

Three kinds of edges join segments:

* ``order`` -- from a call's previous segment to its next one,
  "to conservatively enforce order between regions within" a function;
* ``call`` -- from the caller's active segment to the callee's first segment
  (a callee cannot begin before the call site is reached);
* ``data`` -- from the segment that produced bytes to the segment that first
  consumed them, weighted by the number of unique bytes.

Order and call edges point forward in time.  Data edges of a serial run do
too, but a threaded run can carry backward ones: a long-lived segment on one
thread consumes bytes that a younger segment on another thread produced.

The log leaves the profiler as :class:`EventArrays`, one NumPy table per
record kind; :class:`EventLog` is only the append-only builder the profiler
fills during a run.  :func:`check_rows` is the structural rule every reader
enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Segment",
    "EventLog",
    "EventArrays",
    "as_event_arrays",
    "check_rows",
    "first_violation",
    "EDGE_ORDER",
    "EDGE_CALL",
    "EDGE_DATA",
    "SEG_DTYPE",
    "OC_EDGE_DTYPE",
    "DATA_EDGE_DTYPE",
    "OC_KIND_ORDER",
    "OC_KIND_CALL",
]

EDGE_ORDER = "order"
EDGE_CALL = "call"
EDGE_DATA = "data"

#: Columnar segment record; the segment id is the row index (ids are dense).
SEG_DTYPE = np.dtype(
    [
        ("ctx", "<i8"),
        ("call", "<i8"),
        ("start", "<i8"),
        ("ops", "<i8"),
        ("thread", "<i8"),
    ]
)

#: Order/call edges share one table so their relative (insertion) order --
#: which the text format preserves -- survives the columnar round-trip.
OC_EDGE_DTYPE = np.dtype([("kind", "<i1"), ("src", "<i8"), ("dst", "<i8")])
OC_KIND_ORDER = 0
OC_KIND_CALL = 1

DATA_EDGE_DTYPE = np.dtype([("src", "<i8"), ("dst", "<i8"), ("bytes", "<i8")])


@dataclass
class Segment:
    """One fragment of a function call's computation."""

    seg_id: int
    ctx_id: int
    call_id: int
    start_time: int
    #: Self cost: operations retired within the fragment (Figure 3's
    #: "number of operations performed within the call").
    ops: int = 0
    #: Virtual thread the fragment ran on (0 for serial programs).
    thread: int = 0


class EventLog:
    """Append-only builder of an event log during a run.

    The profiler grows the current segment's ``ops`` in place, so segments
    are objects here; :meth:`to_arrays` hands the finished log on as
    :class:`EventArrays`, the only form readers, writers and analyses take.
    """

    def __init__(self) -> None:
        self.segments: List[Segment] = []
        self._order_call: List[Tuple[int, int, int]] = []
        # (src, dst) -> bytes for data edges; aggregated because one segment
        # usually consumes many bytes from the same producer.
        self._data: Dict[Tuple[int, int], int] = {}

    def new_segment(
        self, ctx_id: int, call_id: int, time: int, thread: int = 0
    ) -> Segment:
        seg = Segment(len(self.segments), ctx_id, call_id, time, thread=thread)
        self.segments.append(seg)
        return seg

    def add_order_edge(self, src: int, dst: int) -> None:
        self._order_call.append((OC_KIND_ORDER, src, dst))

    def add_call_edge(self, src: int, dst: int) -> None:
        self._order_call.append((OC_KIND_CALL, src, dst))

    def add_data_bytes(self, src: int, dst: int, count: int) -> None:
        if src == dst or count <= 0:
            return
        key = (src, dst)
        self._data[key] = self._data.get(key, 0) + count

    def to_arrays(self) -> "EventArrays":
        """The log so far as :class:`EventArrays`."""
        return EventArrays(
            segs=np.fromiter(
                (
                    (s.ctx_id, s.call_id, s.start_time, s.ops, s.thread)
                    for s in self.segments
                ),
                dtype=SEG_DTYPE,
                count=len(self.segments),
            ),
            ordercall=np.array(self._order_call, dtype=OC_EDGE_DTYPE),
            data=np.fromiter(
                ((src, dst, n) for (src, dst), n in self._data.items()),
                dtype=DATA_EDGE_DTYPE,
                count=len(self._data),
            ),
        )


@dataclass
class EventArrays:
    """The event log as NumPy structured arrays (one row per record).

    Laid out so that million-segment logs can be serialised, loaded and
    analysed without building per-row Python objects.  ``segs`` rows are
    indexed by segment id (ids are dense by construction); ``ordercall``
    keeps order and call edges interleaved in their insertion order, which
    both on-disk formats preserve; ``data`` rows keep the aggregated
    data-edge order.
    """

    segs: np.ndarray
    ordercall: np.ndarray
    data: np.ndarray

    @property
    def n_segments(self) -> int:
        return int(len(self.segs))

    def total_ops(self) -> int:
        """The program's serial length in operations."""
        return int(self.segs["ops"].sum()) if len(self.segs) else 0

    def validate(self) -> None:
        """Raise :class:`ValueError` unless :func:`check_rows` passes."""
        n = self.n_segments
        check_rows("segs", self.segs, n)
        check_rows("oced", self.ordercall, n)
        check_rows("data", self.data, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventArrays):
            return NotImplemented
        return (
            np.array_equal(self.segs, other.segs)
            and np.array_equal(self.ordercall, other.ordercall)
            and np.array_equal(self.data, other.data)
        )


def first_violation(
    table: str, rows: np.ndarray, n_segments: Optional[int] = None
) -> Optional[Tuple[int, str]]:
    """The first row of ``rows`` that breaks the event-log structure.

    ``table`` names the rows' table as the v2 format does (``"segs"``,
    ``"oced"`` or ``"data"``).  Segment ops and threads and data-edge bytes
    must be non-negative; edge endpoints must lie in ``[0, n_segments)``
    (only the lower bound when ``n_segments`` is None, as for a chunk whose
    log is still arriving); order/call edges must be of kind order or call
    and point forward in time, while data edges may point either way.
    Returns ``(row, message)`` or None.
    """
    found: List[Tuple[int, str]] = []

    def rule(mask: np.ndarray, message) -> None:
        if bool(mask.any()):
            row = int(np.argmax(mask))
            found.append((row, message(row)))

    if not len(rows):
        return None
    if table == "segs":
        for field in ("ops", "thread"):
            col = rows[field]
            rule(col < 0, lambda i: (
                f"segment {field} must be non-negative, got {col[i]}"
            ))
    else:
        label = "order/call" if table == "oced" else "data"
        src, dst = rows["src"], rows["dst"]
        out = (src < 0) | (dst < 0)
        if n_segments is not None:
            out |= (src >= n_segments) | (dst >= n_segments)
        rule(out, lambda i: (
            f"{label} edge endpoints out of range: {src[i]} -> {dst[i]}"
        ))
        if table == "oced":
            kind = rows["kind"]
            rule((kind != OC_KIND_ORDER) & (kind != OC_KIND_CALL), lambda i: (
                f"unknown order/call edge kind {kind[i]}"
            ))
            rule(src >= dst, lambda i: (
                "order/call edges must point forward in time (src < dst): "
                f"{src[i]} -> {dst[i]}"
            ))
        else:
            nbytes = rows["bytes"]
            rule(nbytes < 0, lambda i: (
                "negative data edge byte counts: bytes must be "
                f"non-negative, got {nbytes[i]}"
            ))
    # The earliest bad row wins; on one row, the rule listed first.
    return min(found, key=lambda bad: bad[0], default=None)


def check_rows(
    table: str, rows: np.ndarray, n_segments: Optional[int] = None
) -> None:
    """Raise :class:`ValueError` if :func:`first_violation` finds a row."""
    bad = first_violation(table, rows, n_segments)
    if bad is not None:
        raise ValueError(bad[1])


def as_event_arrays(events: Union[EventLog, EventArrays]) -> EventArrays:
    """Coerce a builder or an :class:`EventArrays` to the columnar form."""
    if isinstance(events, EventLog):
        return events.to_arrays()
    return events
