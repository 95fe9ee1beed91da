"""A byte-at-a-time reference model of Sigil's shadow-memory methodology.

:class:`ReferenceSigil` is deliberately naive: one Python object per
shadowed unit in a dict, no NumPy, no paging, no runs.  It serves two
purposes:

* **Oracle.**  The differential property tests drive it and
  :class:`~repro.core.profiler.SigilProfiler` with the same event stream
  and require identical communication edges, re-use windows, lifetime
  histograms, re-use count distribution and data edges, so any
  disagreement points at the optimised profiler.
* **Per-byte cost model.**  The paper's Sigil is a Valgrind tool: every
  access walks the shadow object of every byte it touches, which is where
  its slowdown over Callgrind comes from (section IV, Figures 4 and 5).
  The run-wise profiler does O(1) interpreter work per access instead, so
  the Figure 4/5 benches time this model as the byte-granular Sigil.

It is an observer, so a workload can run under it directly.  It models
function structure, threads, the instruction clock, memory accesses and
all of Table I; system calls are not modelled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.reuse import REUSE_BUCKET_BOUNDS, REUSE_BUCKET_LABELS
from repro.trace.events import OpKind
from repro.trace.observer import BaseObserver

__all__ = ["ReferenceSigil"]

Path = Tuple[str, ...]


@dataclass(slots=True)
class _RefUnit:
    """The Table I shadow object of one unit."""

    writer: Optional[Path] = None
    reader: Optional[Path] = None
    reader_call: int = -1
    writer_seg: int = -1
    reuse_count: int = 0
    win_first: int = -1
    win_last: int = -1


def _bucket_label(count: int) -> str:
    """The Figure 8 bucket of one unit's re-use count, by linear scan."""
    for bound, label in zip(REUSE_BUCKET_BOUNDS, REUSE_BUCKET_LABELS):
        if count < bound:
            return label
    return REUSE_BUCKET_LABELS[-1]


class ReferenceSigil(BaseObserver):
    """Unit-at-a-time reference implementation of the classification.

    ``line_size`` generalises the model to the line-granularity mode: a unit
    is ``line_size`` bytes and every touched unit is credited at that scale,
    exactly as the optimised profiler does.

    The model keeps the instruction clock (one tick per access and per
    branch, ``count`` per op), numbers segments the way event mode does
    (one per function entry and one per resumption), and, per unit, the
    re-use state of Table I.  A window closes when a different call reads
    the unit, when it is overwritten and at run end; a closed window whose
    last read came after its first contributes its lifetime.  Each thread
    has its own call and segment stacks; the shadow units are shared.
    """

    def __init__(self, line_size: int = 1, bin_size: int = 1000) -> None:
        self.stack: List[Path] = [()]
        self.call_stack: List[int] = [0]
        self.seg_stack: List[int] = [0]
        self.n_segments = 1
        self.call_counter = 0
        self.time = 0
        self.line_size = line_size
        self.bin_size = bin_size
        self._shift = line_size.bit_length() - 1
        self.units: Dict[int, _RefUnit] = {}
        # (writer_path|None, reader_path) -> [unique, nonunique]
        self.edges: Dict[Tuple[Optional[Path], Path], List[int]] = {}
        # (producer segment, consumer segment) -> unique bytes
        self.data_edges: Dict[Tuple[int, int], int] = {}
        # reader path -> lifetimes of its closed re-used windows
        self.windows: Dict[Path, List[int]] = {}
        # reader path -> re-read bytes
        self.reuse_accesses: Dict[Path, int] = {}
        # bucket label -> retired units
        self.retired: Counter = Counter()
        self._threads = {0: (self.stack, self.call_stack, self.seg_stack)}
        self._tid = 0

    def _new_segment(self) -> int:
        self.n_segments += 1
        return self.n_segments - 1

    # -- observer protocol ------------------------------------------------

    def on_fn_enter(self, name: str) -> None:
        self.stack.append(self.stack[-1] + (name,))
        self.call_counter += 1
        self.call_stack.append(self.call_counter)
        self.seg_stack.append(self._new_segment())

    def on_fn_exit(self, name: str) -> None:
        self.stack.pop()
        self.call_stack.pop()
        self.seg_stack.pop()
        self.seg_stack[-1] = self._new_segment()

    def on_thread_switch(self, tid: int) -> None:
        if tid == self._tid:
            return
        self._threads[self._tid] = (self.stack, self.call_stack, self.seg_stack)
        if tid not in self._threads:
            self.call_counter += 1
            self._threads[tid] = ([()], [self.call_counter], [self._new_segment()])
        self.stack, self.call_stack, self.seg_stack = self._threads[tid]
        self._tid = tid

    def on_op(self, kind: OpKind, count: int) -> None:
        self.time += count

    def on_branch(self, site: int, taken: bool) -> None:
        self.time += 1

    def on_mem_write(self, addr: int, size: int) -> None:
        self.time += 1
        ctx = self.stack[-1]
        for a in self._units(addr, size):
            if a in self.units:
                self._retire(self.units[a])
            self.units[a] = _RefUnit(writer=ctx, writer_seg=self.seg_stack[-1])

    def on_mem_read(self, addr: int, size: int) -> None:
        self.time += 1
        ctx = self.stack[-1]
        call = self.call_stack[-1]
        seg = self.seg_stack[-1]
        for a in self._units(addr, size):
            shadow = self.units.get(a)
            if shadow is None:
                shadow = self.units[a] = _RefUnit()
            unique = shadow.reader != ctx
            key = (shadow.writer, ctx)
            counts = self.edges.setdefault(key, [0, 0])
            counts[0 if unique else 1] += self.line_size
            if unique:
                if shadow.writer_seg >= 0 and shadow.writer_seg != seg:
                    edge = (shadow.writer_seg, seg)
                    self.data_edges[edge] = (
                        self.data_edges.get(edge, 0) + self.line_size
                    )
            else:
                shadow.reuse_count += 1
                self.reuse_accesses[ctx] = (
                    self.reuse_accesses.get(ctx, 0) + self.line_size
                )
            if shadow.reader_call != call:
                self._close_window(shadow)
                shadow.win_first = self.time
            shadow.win_last = self.time
            shadow.reader = ctx
            shadow.reader_call = call

    def on_run_end(self) -> None:
        """End of run: every live unit's value dies."""
        for shadow in self.units.values():
            self._retire(shadow)

    # -- helpers ----------------------------------------------------------

    def _units(self, addr: int, size: int) -> range:
        if size <= 0:
            # A zero-byte access moves no data and touches no shadow state.
            return range(0)
        return range(addr >> self._shift, ((addr + size - 1) >> self._shift) + 1)

    def _close_window(self, shadow: _RefUnit) -> None:
        if shadow.reader is not None and shadow.win_last > shadow.win_first:
            lifetimes = self.windows.setdefault(shadow.reader, [])
            lifetimes.append(shadow.win_last - shadow.win_first)

    def _retire(self, shadow: _RefUnit) -> None:
        """The unit's value dies: close its window, bucket its count."""
        self._close_window(shadow)
        if shadow.writer is not None or shadow.reader is not None:
            self.retired[_bucket_label(shadow.reuse_count)] += 1

    # -- results ----------------------------------------------------------

    def per_fn(self) -> Dict[Path, tuple]:
        """path -> (windows, lifetime sum, re-use accesses, histogram)."""
        out = {}
        for path in set(self.windows) | set(self.reuse_accesses):
            lifetimes = self.windows.get(path, [])
            histogram = Counter(lt // self.bin_size for lt in lifetimes)
            out[path] = (
                len(lifetimes),
                sum(lifetimes),
                self.reuse_accesses.get(path, 0),
                dict(histogram),
            )
        return out

    def byte_breakdown(self) -> Dict[str, int]:
        return {label: self.retired[label] for label in REUSE_BUCKET_LABELS}
