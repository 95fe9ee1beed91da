"""Synthetic event logs for tests: :class:`EventArrays` from plain rows."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core.segments import (
    DATA_EDGE_DTYPE,
    EDGE_CALL,
    EDGE_ORDER,
    OC_EDGE_DTYPE,
    OC_KIND_CALL,
    OC_KIND_ORDER,
    SEG_DTYPE,
    EventArrays,
)

__all__ = ["event_arrays"]

_KINDS = {EDGE_ORDER: OC_KIND_ORDER, EDGE_CALL: OC_KIND_CALL}


def event_arrays(
    segs: Iterable[Sequence[int]] = (),
    edges: Iterable[Tuple[str, int, int]] = (),
    data: Iterable[Tuple[int, int, int]] = (),
) -> EventArrays:
    """An event log built from rows, in table order.

    ``segs`` holds ``(ctx, call, start, ops[, thread])`` rows, a segment's
    id being its position (``thread`` defaults to 0); ``edges`` holds
    ``("order" | "call", src, dst)`` rows; ``data`` holds ``(src, dst,
    bytes)`` rows.  Rows go in as given: unlike the profiler, nothing is
    summed per pair or skipped.
    """
    return EventArrays(
        segs=np.array(
            [tuple(row) + (0,) * (5 - len(row)) for row in segs],
            dtype=SEG_DTYPE,
        ),
        ordercall=np.array(
            [(_KINDS[kind], src, dst) for kind, src, dst in edges],
            dtype=OC_EDGE_DTYPE,
        ),
        data=np.array([tuple(row) for row in data], dtype=DATA_EDGE_DTYPE),
    )
