"""Persistence of event logs (Sigil's second output representation).

"[Sigil] can ... list the execution as a sequence of dependent 'events'.
The latter representation allows a system designer to view a workload as a
list of function calls connected by data transfer edges." (section I)

Text format (``# sigil-events 1``)::

    seg <id> <ctx> <call> <start_time> <ops> <thread>
    edge <kind> <src> <dst> [<bytes>]

``seg`` records carry six fields; five-field records from pre-thread files
are still accepted (``thread`` defaults to 0).  Segment lines appear in id
order.  The parser enforces :func:`~repro.core.segments.check_rows` and
names the offending line when a record breaks it.

Both directions work on :class:`~repro.core.segments.EventArrays`.
:func:`load_event_arrays` is the one loader for event files: it sniffs the
version magic, so callers read this text format and the binary columnar
``# sigil-events 2`` (:mod:`repro.io.eventbin`) alike.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.core.segments import (
    DATA_EDGE_DTYPE,
    EDGE_CALL,
    EDGE_DATA,
    EDGE_ORDER,
    OC_EDGE_DTYPE,
    OC_KIND_CALL,
    OC_KIND_ORDER,
    SEG_DTYPE,
    EventArrays,
    EventLog,
    first_violation,
)
from repro.io.eventbin import MAGIC_V2, load_event_arrays_bin

__all__ = [
    "dump_events",
    "load_event_arrays",
    "dumps_events",
    "loads_events",
]

_MAGIC = "# sigil-events 1"
_OC_KINDS = {EDGE_ORDER: OC_KIND_ORDER, EDGE_CALL: OC_KIND_CALL}
_OC_NAMES = {kind: name for name, kind in _OC_KINDS.items()}


def dumps_events(events: EventArrays) -> str:
    """Serialise an event log to the sigil-events text format."""
    lines: List[str] = [_MAGIC]
    lines += [
        f"seg {seg_id} {ctx} {call} {start} {ops} {thread}"
        for seg_id, (ctx, call, start, ops, thread)
        in enumerate(events.segs.tolist())
    ]
    lines += [
        f"edge {_OC_NAMES[kind]} {src} {dst}"
        for kind, src, dst in events.ordercall.tolist()
    ]
    lines += [
        f"edge {EDGE_DATA} {src} {dst} {count}"
        for src, dst, count in events.data.tolist()
    ]
    return "\n".join(lines) + "\n"


def dump_events(events: EventArrays, path: Union[str, Path]) -> None:
    """Write an event log to ``path``."""
    Path(path).write_text(dumps_events(events))


def loads_events(text: str) -> EventArrays:
    """Parse sigil-events text into :class:`EventArrays`.

    Validation errors carry the offending line number and text, so a bad
    record deep inside a multi-megabyte event file is findable.  Data
    edges aggregate per ``(src, dst)`` pair in first-seen order, and
    self-edges and zero counts are dropped, as the profiler records them.
    """
    lines = text.splitlines()
    if not lines or lines[0] != _MAGIC:
        raise ValueError("not a sigil event file (bad magic)")
    # Rows of each table, and the line index each row came from.
    rows: Dict[str, List[tuple]] = {"segs": [], "oced": [], "data": []}
    where: Dict[str, List[int]] = {"segs": [], "oced": [], "data": []}

    def fail(index: int, message: str) -> ValueError:
        return ValueError(f"{message} (line {index + 1}: {lines[index]!r})")

    for index in range(1, len(lines)):
        line = lines[index]
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        fields = rest.split()
        if kind == "seg":
            try:
                parts = [int(x) for x in fields]
            except ValueError:
                raise fail(index, "malformed segment record") from None
            if len(parts) == 5:  # pre-thread files
                parts.append(0)
            if len(parts) != 6:
                raise fail(
                    index,
                    f"segment records take 5 or 6 fields, got {len(parts)}",
                )
            expected = len(rows["segs"])
            if parts[0] != expected:
                raise fail(
                    index,
                    f"segment ids must be dense and ordered; got "
                    f"{parts[0]}, expected {expected}",
                )
            table, row = "segs", tuple(parts[1:])
        elif kind == "edge":
            if not fields:
                raise fail(index, "empty edge record")
            edge_kind = fields[0]
            if edge_kind != EDGE_DATA and edge_kind not in _OC_KINDS:
                raise fail(index, f"unknown edge kind {edge_kind!r}")
            n_expected = 4 if edge_kind == EDGE_DATA else 3
            if len(fields) != n_expected:
                raise fail(
                    index,
                    f"{edge_kind} edges take {n_expected - 1} operands, "
                    f"got {len(fields) - 1}",
                )
            try:
                operands = tuple(int(x) for x in fields[1:])
            except ValueError:
                raise fail(index, "malformed edge record") from None
            if edge_kind == EDGE_DATA:
                table, row = "data", operands
            else:
                table, row = "oced", (_OC_KINDS[edge_kind],) + operands
        else:
            raise fail(index, f"unknown event line kind: {kind!r}")
        rows[table].append(row)
        where[table].append(index)

    n = len(rows["segs"])
    tables = {}
    for table, dtype in (
        ("segs", SEG_DTYPE), ("oced", OC_EDGE_DTYPE), ("data", DATA_EDGE_DTYPE)
    ):
        tables[table] = np.array(rows[table], dtype=dtype)
        bad = first_violation(table, tables[table], n)
        if bad is not None:
            raise fail(where[table][bad[0]], bad[1])
    merged = EventLog()
    for src, dst, count in rows["data"]:
        merged.add_data_bytes(src, dst, count)
    return EventArrays(
        segs=tables["segs"],
        ordercall=tables["oced"],
        data=merged.to_arrays().data,
    )


def load_event_arrays(path: Union[str, Path]) -> EventArrays:
    """Read an event file into :class:`EventArrays`, sniffing v1 vs v2."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC_V2)) == MAGIC_V2:
            return load_event_arrays_bin(path)
    return loads_events(path.read_text())
