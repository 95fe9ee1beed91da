"""Write-only text event logs (``# sigil-events 1``).

"[Sigil] can ... list the execution as a sequence of dependent 'events'.
The latter representation allows a system designer to view a workload as a
list of function calls connected by data transfer edges." (section I)

Text format (``# sigil-events 1``)::

    seg <id> <ctx> <call> <start_time> <ops> <thread>
    edge <kind> <src> <dst> [<bytes>]

Segment lines appear in id order, then order/call edges in insertion
order, then aggregated data edges.  The format is for people: it is
written for reading and diffing, and nothing reads it back.  Every event
reader takes the binary columnar ``# sigil-events 2``
(:func:`repro.io.eventbin.load_event_arrays`), which rejects v1 by name;
the v1 text of a log loaded from v2 is byte-identical to a direct dump.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.core.segments import (
    EDGE_CALL,
    EDGE_DATA,
    EDGE_ORDER,
    OC_KIND_CALL,
    OC_KIND_ORDER,
    EventArrays,
)

__all__ = ["dump_events", "dumps_events"]

_MAGIC = "# sigil-events 1"
_OC_NAMES = {OC_KIND_ORDER: EDGE_ORDER, OC_KIND_CALL: EDGE_CALL}


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
