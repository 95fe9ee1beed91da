"""Time-resolved curves over an event log (working set, communication, reuse).

Whole-run aggregates hide *when* a workload communicates.  This module
computes the temporal view in one streaming pass over the v2 chunks, in the
spirit of Becker & Chakraborty's Valgrind working-set tool: the run's
operation timeline is cut into fixed-width windows (``window`` ops each)
and every curve is one value per window.

* ``ops`` -- operations retired per window (each segment's self cost lands
  in the window where the segment starts).
* ``comm_bytes`` -- unique communicated bytes consumed per window (a data
  edge lands in the window where its *reader* segment starts).
* ``ws_bytes`` -- the communication working set WS(t): bytes that have been
  produced but not yet consumed during window ``t``.  Each data edge
  contributes its bytes to every window from the producer's completion to
  the consumer's start -- accumulated as a difference array (+b at the
  birth window, -b after the death window) and integrated with one cumsum,
  so the pass stays O(edges + windows) regardless of lifetime length.
* ``lifetime_sum`` / ``lifetime_edges`` -- per-window totals for the reuse
  lifetime (consumer start minus producer end, in ops; clamped at zero for
  overlapping segments), from which :attr:`WindowedCurves.mean_lifetime`
  derives the mean-reuse-lifetime-over-time curve.
* ``lifetime_hist`` -- a whole-run exponentially binned lifetime histogram
  (Becker-style): bin 0 counts zero-lifetime edges, bin ``k`` counts
  lifetimes in ``[2^(k-1), 2^k)``.

Memory is bounded by the chunk size plus 16 bytes per segment (each
segment's start and end op-counts, needed to place edges whose producer
lives arbitrarily far in the past) plus the curves themselves.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.streaming import (
    EventSource,
    SegmentColumns,
    as_chunk_source,
    stream_resolved,
)
from repro.core.config import DEFAULT_WINDOW_OPS

__all__ = [
    "DEFAULT_WINDOW_OPS",
    "WINDOWED_SCHEMA",
    "WindowedCurves",
    "windowed_curves",
]

#: Schema tag of the JSON artifact (:meth:`WindowedCurves.to_dict`).
WINDOWED_SCHEMA = "repro-windowed/1"


class _WindowAccumulator:
    """A zero-initialised int64 accumulator indexed by window, auto-growing."""

    __slots__ = ("_buf", "n")

    def __init__(self) -> None:
        self._buf = np.zeros(64, dtype=np.int64)
        self.n = 0

    def add_at(self, idx: np.ndarray, values) -> None:
        if not len(idx):
            return
        top = int(idx.max()) + 1
        if top > len(self._buf):
            grown = np.zeros(max(top, 2 * len(self._buf)), dtype=np.int64)
            grown[: self.n] = self._buf[: self.n]
            self._buf = grown
        self.n = max(self.n, top)
        np.add.at(self._buf, idx, values)

    def array(self, n: int) -> np.ndarray:
        """The accumulator as exactly ``n`` windows (zero padded)."""
        out = np.zeros(n, dtype=np.int64)
        out[: min(self.n, n)] = self._buf[: min(self.n, n)]
        return out


@dataclass
class WindowedCurves:
    """The time-resolved curves of one run (see module docstring).

    All per-window arrays share one length ``n_windows``; window ``k``
    covers operations ``[k * window, (k + 1) * window)``.
    """

    window: int
    ops: np.ndarray
    comm_bytes: np.ndarray
    ws_bytes: np.ndarray
    lifetime_sum: np.ndarray
    lifetime_edges: np.ndarray
    lifetime_hist: np.ndarray
    total_segments: int = 0
    total_edges: int = 0

    @property
    def n_windows(self) -> int:
        return len(self.ops)

    @property
    def mean_lifetime(self) -> np.ndarray:
        """Mean reuse lifetime (ops) of the edges consumed in each window."""
        denom = np.maximum(self.lifetime_edges, 1)
        return self.lifetime_sum / denom

    @property
    def peak_ws_bytes(self) -> int:
        return int(self.ws_bytes.max()) if len(self.ws_bytes) else 0

    @property
    def total_comm_bytes(self) -> int:
        return int(self.comm_bytes.sum())

    def to_dict(self) -> Dict:
        """The ``repro-windowed/1`` JSON artifact."""
        return {
            "schema": WINDOWED_SCHEMA,
            "window": self.window,
            "n_windows": self.n_windows,
            "total_segments": self.total_segments,
            "total_edges": self.total_edges,
            "ops": self.ops.tolist(),
            "comm_bytes": self.comm_bytes.tolist(),
            "ws_bytes": self.ws_bytes.tolist(),
            "lifetime_sum": self.lifetime_sum.tolist(),
            "lifetime_edges": self.lifetime_edges.tolist(),
            "lifetime_hist": self.lifetime_hist.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "WindowedCurves":
        schema = payload.get("schema")
        if schema != WINDOWED_SCHEMA:
            raise ValueError(f"unsupported windowed-curves schema {schema!r}")

        def arr(key: str) -> np.ndarray:
            return np.asarray(payload.get(key, []), dtype=np.int64)

        return cls(
            window=int(payload["window"]),
            ops=arr("ops"),
            comm_bytes=arr("comm_bytes"),
            ws_bytes=arr("ws_bytes"),
            lifetime_sum=arr("lifetime_sum"),
            lifetime_edges=arr("lifetime_edges"),
            lifetime_hist=arr("lifetime_hist"),
            total_segments=int(payload.get("total_segments", 0)),
            total_edges=int(payload.get("total_edges", 0)),
        )


def windowed_curves(
    source: EventSource,
    *,
    window: int = DEFAULT_WINDOW_OPS,
    chunk_rows: Optional[int] = None,
    telemetry=None,
) -> WindowedCurves:
    """Compute all curves in one streaming pass.

    Order/call chunks are skipped without decoding (the curves only need
    segments and data edges).  Accepts every event-log form a
    :class:`~repro.analysis.streaming.ChunkSource` does; results are
    independent of the source's chunking.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    src = as_chunk_source(source, chunk_rows=chunk_rows)
    cols = SegmentColumns(("start", "end"))
    ops_acc = _WindowAccumulator()
    comm_acc = _WindowAccumulator()
    ws_diff = _WindowAccumulator()
    life_sum = _WindowAccumulator()
    life_cnt = _WindowAccumulator()
    hist = _WindowAccumulator()
    total_segments = 0
    total_edges = 0
    phase = (
        telemetry.phase("windowed")
        if telemetry is not None
        else contextlib.nullcontext()
    )
    with phase:
        stream = stream_resolved(
            src, cols, tables=("segs", "data"), telemetry=telemetry
        )
        for table, rows in stream:
            if table == "segs":
                total_segments += len(rows)
                ops_acc.add_at(rows["start"] // window, rows["ops"])
            else:
                total_edges += len(rows)
                starts = cols.col("start")
                ends = cols.col("end")
                born = ends[rows["src"]]  # producer completion time
                used = starts[rows["dst"]]  # consumer start time
                weight = rows["bytes"]
                k_used = used // window
                comm_acc.add_at(k_used, weight)
                lifetime = np.maximum(used - born, 0)
                life_sum.add_at(k_used, lifetime)
                life_cnt.add_at(k_used, 1)
                # Live interval [birth window, consume window]: difference
                # array, integrated once at the end.
                k_born = np.minimum(born, used) // window
                ws_diff.add_at(k_born, weight)
                ws_diff.add_at(k_used + 1, -weight)
                # Exponential lifetime bins: 0, [1,2), [2,4), [4,8), ...
                bins = np.zeros(len(lifetime), dtype=np.int64)
                live = lifetime > 0
                if bool(live.any()):
                    bins[live] = (
                        np.floor(np.log2(lifetime[live])).astype(np.int64) + 1
                    )
                hist.add_at(bins, 1)

    n_windows = max(ops_acc.n, comm_acc.n, life_sum.n)
    ws = np.cumsum(ws_diff.array(n_windows + 1))[:n_windows]
    return WindowedCurves(
        window=window,
        ops=ops_acc.array(n_windows),
        comm_bytes=comm_acc.array(n_windows),
        ws_bytes=ws,
        lifetime_sum=life_sum.array(n_windows),
        lifetime_edges=life_cnt.array(n_windows),
        lifetime_hist=hist.array(hist.n),
        total_segments=total_segments,
        total_edges=total_edges,
    )
