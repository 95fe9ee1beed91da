"""Event-mode output: the execution as a sequence of dependent events.

"Sigil can represent output data ... by recording a list of all of the data
transfers that occur.  In the latter representation, a program's essence can
be reconstructed as a sequence of dependent 'events'.  These events are
fragments of computation separated by data transfer edges." (section II-B)

A segment is one such fragment: a maximal interval during which a single
function call executes without an intervening call or return.  Every
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

:class:`EventArrays` is the one in-memory form of the log, one NumPy table
per record kind: the profiler appends to plain columns during a run and
hands them over as :class:`EventArrays`; readers, writers and analyses take
nothing else.  :func:`check_rows` is the structural rule every reader
enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
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
#: ``ctx`` and ``call`` name the function context and call the fragment
#: belongs to, ``start`` is the clock when it opened, ``ops`` its self cost
#: (Figure 3's "number of operations performed within the call") and
#: ``thread`` the virtual thread it ran on (0 for serial programs).
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


def as_event_arrays(events: EventArrays) -> EventArrays:
    """Return ``events`` unchanged.

    An identity kept only for the two benchmark scripts that still import
    it (``perfbench/calibrate.py`` and ``perfbench/make_reference.py``);
    it goes once they drop the import.
    """
    return events
