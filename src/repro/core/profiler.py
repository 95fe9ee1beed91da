"""The Sigil profiler: an observer that models data exchange in workloads.

Implements section II of the paper.  The profiler watches the primitive
stream of an execution substrate and, using the two-level shadow memory,
"captures communication by tracking the producer and all consumers of every
data byte generated by a program":

* On a **write**, the shadow objects of the written bytes record the writing
  context as *last writer* (and, in event mode, the writing segment); their
  reader state is reset because the overwritten value has died.
* On a **read**, each byte is classified:

  - *non-unique* if the reading **function** is already the byte's last
    reader ("Sigil checks if the reading function is the last reader and if
    so counts the read as non-unique") -- the comparison is on the function
    context, so a second call of the same function re-reading a byte is
    still a re-read (an accelerator with internal memory keeps the data);
    the last-reader *call number* (Table I) exists for re-use lifetime
    windows, which the paper defines per function call;
  - *local* if the byte's last writer is the reading context itself;
  - otherwise the byte is *input* of the reader and *output* of the writer,
    accumulated into the (writer, reader) edge of the communication matrix.
    Bytes whose shadow entry is still invalid have no recorded producer --
    they are program input staged outside the program's own stores.

Time is counted in retired instructions, "an architecture-independent proxy
for execution time" (section IV-B): every operation, memory access, and
branch advances the clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.cct import INVALID_CTX, ContextNode, ContextTree
from repro.core.aggregate import CommEdge, CommMatrix, FnComm
from repro.core.config import SigilConfig
from repro.core.reuse import ReuseStats
from repro.core.segments import EventLog, Segment
from repro.core.shadow import SHADOW_PAGE_SIZE, ShadowMemory, ShadowPage
from repro.trace.events import OpKind
from repro.trace.observer import BaseObserver

__all__ = ["SigilProfiler", "SigilProfile", "ShadowStats"]


@dataclass(frozen=True)
class ShadowStats:
    """Footprint accounting of the shadow memory after a run."""

    live_pages: int
    peak_pages: int
    pages_evicted: int
    shadow_bytes: int
    peak_shadow_bytes: int


class SigilProfile:
    """Everything a Sigil run produced.

    The two output representations of section II-B live side by side:
    per-context aggregates (``functions`` + ``comm``) and, when event mode
    was enabled, the event log (``events``).
    """

    def __init__(
        self,
        config: SigilConfig,
        tree: ContextTree,
        functions: Dict[int, FnComm],
        comm: CommMatrix,
        reuse: Optional[ReuseStats],
        events: Optional[EventLog],
        shadow_stats: ShadowStats,
        total_time: int,
    ):
        self.config = config
        self.tree = tree
        self.functions = functions
        self.comm = comm
        self.reuse = reuse
        self.events = events
        self.shadow_stats = shadow_stats
        self.total_time = total_time

    # -- lookups ----------------------------------------------------------

    def fn_comm(self, ctx_id: int) -> FnComm:
        return self.functions.get(ctx_id, FnComm())

    def contexts(self) -> List[ContextNode]:
        """All profiled contexts except the synthetic root."""
        return [n for n in self.tree.nodes if n.parent is not None]

    def contexts_named(self, name: str) -> List[ContextNode]:
        return self.tree.by_name(name)

    # -- per-context communication classification ---------------------------

    def unique_input_bytes(self, ctx_id: int) -> int:
        return self.comm.unique_input_bytes(ctx_id)

    def unique_output_bytes(self, ctx_id: int) -> int:
        return self.comm.unique_output_bytes(ctx_id)

    def unique_local_bytes(self, ctx_id: int) -> int:
        return self.comm.unique_local_bytes(ctx_id)

    def unique_bytes_processed(self, ctx_id: int) -> int:
        """Unique data the context touched first-hand: inputs it consumed
        plus locally produced-and-consumed data (the denominator used when
        ranking vips contributors in section IV-B).

        Bytes credited by syscall boundary edges are excluded: file content
        already shows up as invalid-producer input when the program actually
        reads it, so counting the syscall edge would double-count.
        """
        total = self.unique_local_bytes(ctx_id)
        for writer, edge in self.comm.input_edges(ctx_id).items():
            if writer >= 0 and self.tree.node(writer).name.startswith("sys:"):
                continue
            total += edge.unique_bytes
        return total

    # -- by-name aggregation (flat, context-insensitive view) ------------------

    def by_name(self) -> Dict[str, FnComm]:
        """Sum self costs over all contexts sharing a function name."""
        out: Dict[str, FnComm] = {}
        for node in self.contexts():
            comm = self.functions.get(node.id)
            if comm is None:
                continue
            agg = out.setdefault(node.name, FnComm())
            agg.iops += comm.iops
            agg.flops += comm.flops
            agg.reads += comm.reads
            agg.read_bytes += comm.read_bytes
            agg.writes += comm.writes
            agg.write_bytes += comm.write_bytes
            agg.syscall_input_bytes += comm.syscall_input_bytes
            agg.syscall_output_bytes += comm.syscall_output_bytes
        return out

    def total_ops(self) -> int:
        return sum(fc.ops for fc in self.functions.values())


class _Frame:
    """Per-active-call bookkeeping."""

    __slots__ = ("node", "call_id", "segment")

    def __init__(self, node: ContextNode, call_id: int, segment: Optional[Segment]):
        self.node = node
        self.call_id = call_id
        self.segment = segment


class SigilProfiler(BaseObserver):
    """Observer implementing Sigil's shadow-memory methodology."""

    def __init__(self, config: Optional[SigilConfig] = None):
        self.config = config if config is not None else SigilConfig()
        self.tree = ContextTree()
        self.comm = CommMatrix()
        self.functions: Dict[int, FnComm] = {}
        self.reuse: Optional[ReuseStats] = (
            ReuseStats() if self.config.reuse_mode else None
        )
        self.events: Optional[EventLog] = EventLog() if self.config.event_mode else None
        self.shadow = ShadowMemory(
            reuse_mode=self.config.reuse_mode,
            event_mode=self.config.event_mode,
            max_pages=self.config.max_shadow_pages,
            on_evict=self._finalise_page,
        )
        self._unit_shift = self.config.line_size.bit_length() - 1
        self._unit_size = self.config.line_size

        self.time = 0
        self._call_counter = 0
        self._finalised = False
        # Per-thread state: each (virtual) thread has its own call stack and
        # pending-syscall stack; the shadow memory is shared, so cross-thread
        # communication classifies exactly like any producer-consumer pair.
        self._thread_stacks: Dict[int, List[_Frame]] = {}
        self._thread_pending: Dict[int, List[ContextNode]] = {}
        self._tid = 0
        self._stack = self._new_thread_stack(0)
        self._cur: _Frame = self._stack[0]
        self._fn: FnComm = self._fn_for(self.tree.root.id)
        self._pending_syscalls = self._thread_pending[0]

    def _new_thread_stack(self, tid: int) -> List[_Frame]:
        root_seg = (
            self.events.new_segment(0, self._call_counter, self.time, thread=tid)
            if self.events is not None
            else None
        )
        stack = [_Frame(self.tree.root, self._call_counter, root_seg)]
        self._thread_stacks[tid] = stack
        self._thread_pending[tid] = []
        return stack

    def on_thread_switch(self, tid: int) -> None:
        if tid == self._tid:
            return
        stack = self._thread_stacks.get(tid)
        if stack is None:
            self._call_counter += 1  # fresh root call id for the new thread
            stack = self._new_thread_stack(tid)
        self._tid = tid
        self._stack = stack
        self._cur = stack[-1]
        self._fn = self._fn_for(self._cur.node.id)
        self._pending_syscalls = self._thread_pending[tid]

    # -- helpers ----------------------------------------------------------

    def _fn_for(self, ctx_id: int) -> FnComm:
        comm = self.functions.get(ctx_id)
        if comm is None:
            comm = FnComm()
            self.functions[ctx_id] = comm
        return comm

    def _add_edges(
        self, writers: np.ndarray, reader: int, count_scale: int, *, unique: bool
    ) -> None:
        """Accumulate edge bytes grouped by producer context."""
        n = len(writers)
        if n == 0:
            return
        first = int(writers[0])
        if n == 1 or (writers == first).all():
            counts: List[Tuple[int, int]] = [(first, n)]
        else:
            ids, cnts = np.unique(writers, return_counts=True)
            counts = list(zip(ids.tolist(), cnts.tolist()))
        if unique:
            for wid, cnt in counts:
                self.comm.add(wid, reader, unique=cnt * count_scale)
        else:
            for wid, cnt in counts:
                self.comm.add(wid, reader, nonunique=cnt * count_scale)

    def _add_data_edges(self, writer_segs: np.ndarray, dst_seg: int, scale: int) -> None:
        assert self.events is not None
        n = len(writer_segs)
        if n == 0:
            return
        first = int(writer_segs[0])
        if n == 1 or (writer_segs == first).all():
            if first >= 0:
                self.events.add_data_bytes(first, dst_seg, n * scale)
            return
        ids, cnts = np.unique(writer_segs, return_counts=True)
        for sid, cnt in zip(ids.tolist(), cnts.tolist()):
            if sid >= 0:
                self.events.add_data_bytes(int(sid), dst_seg, int(cnt) * scale)

    # -- function structure --------------------------------------------------

    def on_fn_enter(self, name: str) -> None:
        parent = self._cur
        node = self.tree.child(parent.node, name)
        node.calls += 1
        self._call_counter += 1
        segment: Optional[Segment] = None
        if self.events is not None:
            segment = self.events.new_segment(
                node.id, self._call_counter, self.time, thread=self._tid
            )
            if parent.segment is not None:
                self.events.add_call_edge(parent.segment.seg_id, segment.seg_id)
        frame = _Frame(node, self._call_counter, segment)
        self._stack.append(frame)
        self._cur = frame
        self._fn = self._fn_for(node.id)

    def on_fn_exit(self, name: str) -> None:
        if len(self._stack) <= 1:
            raise RuntimeError(
                f"unbalanced trace: exit({name!r}) with no function open "
                f"on thread {self._tid}"
            )
        self._stack.pop()
        resumed = self._stack[-1]
        if self.events is not None:
            # The resumed caller continues in a fresh segment, conservatively
            # ordered after its previous fragment (Figure 3).
            prev = resumed.segment
            segment = self.events.new_segment(
                resumed.node.id, resumed.call_id, self.time, thread=self._tid
            )
            if prev is not None:
                self.events.add_order_edge(prev.seg_id, segment.seg_id)
            resumed.segment = segment
        self._cur = resumed
        self._fn = self._fn_for(resumed.node.id)

    # -- computation -----------------------------------------------------------

    def on_op(self, kind: OpKind, count: int) -> None:
        self.time += count
        if kind is OpKind.FLOAT:
            self._fn.flops += count
        else:
            self._fn.iops += count
        seg = self._cur.segment
        if seg is not None:
            seg.ops += count

    def on_branch(self, site: int, taken: bool) -> None:
        self.time += 1

    def on_branch_batch(self, sites, takens) -> None:
        # Branches only advance the instruction clock here, and the clock is
        # a sum; the transport only defers branches for lenient (non-reuse)
        # configs, where no output reads per-access timestamps.
        self.time += len(sites)

    # -- memory ------------------------------------------------------------------

    def on_mem_write(self, addr: int, size: int) -> None:
        self.time += 1
        fn = self._fn
        fn.writes += 1
        fn.write_bytes += size
        if size <= 0:
            # A zero-byte store moves no data: it must touch no shadow
            # state.  (Without this guard the unit arithmetic below rounds
            # an unaligned empty range up to one unit and fabricates a
            # whole line of communication at line granularity.)
            return
        ctx = self._cur.node.id
        seg_id = self._cur.segment.seg_id if self._cur.segment is not None else -1
        lo_unit = addr >> self._unit_shift
        n_units = ((addr + size - 1) >> self._unit_shift) - lo_unit + 1
        reuse = self.reuse
        for page, lo, hi in self.shadow.chunks(lo_unit, n_units):
            if reuse is not None:
                self._close_and_retire(page, lo, hi, reuse)
            page.writer[lo:hi] = ctx
            if page.writer_seg is not None:
                page.writer_seg[lo:hi] = seg_id
            page.reader[lo:hi] = INVALID_CTX
            page.reader_call[lo:hi] = -1

    def _close_and_retire(
        self, page: ShadowPage, lo: int, hi: int, reuse: ReuseStats
    ) -> None:
        """The values in [lo, hi) die: close reuse windows, retire bytes."""
        readers = page.reader[lo:hi]
        valid = readers >= 0
        if valid.any():
            reuse.close_windows(
                readers[valid],
                page.win_first[lo:hi][valid],
                page.win_last[lo:hi][valid],
            )
        touched = (page.writer[lo:hi] >= 0) | valid
        if touched.any():
            reuse.retire_bytes(page.reuse_count[lo:hi][touched])
        page.reuse_count[lo:hi] = 0
        page.win_first[lo:hi] = -1
        page.win_last[lo:hi] = -1

    def on_mem_read(self, addr: int, size: int) -> None:
        self.time += 1
        fn = self._fn
        fn.reads += 1
        fn.read_bytes += size
        if size <= 0:
            return  # zero-byte loads consume no data (see on_mem_write)
        ctx = self._cur.node.id
        call_id = self._cur.call_id
        scale = self._unit_size
        now = self.time
        reuse = self.reuse
        events = self.events
        lo_unit = addr >> self._unit_shift
        n_units = ((addr + size - 1) >> self._unit_shift) - lo_unit + 1
        for page, lo, hi in self.shadow.chunks(lo_unit, n_units):
            writers = page.writer[lo:hi]
            # Uniqueness compares the reading *function context* with the
            # last reader; re-use windows compare the *call number*.
            nonuniq = page.reader[lo:hi] == ctx
            n_nonuniq = int(nonuniq.sum())
            n_total = hi - lo
            if n_nonuniq == n_total:
                uniq = None  # pure re-read, common fast path
            else:
                uniq = ~nonuniq
                uniq_writers = writers[uniq]
                self._add_edges(uniq_writers, ctx, scale, unique=True)
                if events is not None:
                    self._add_data_edges(
                        page.writer_seg[lo:hi][uniq],
                        self._cur.segment.seg_id,
                        scale,
                    )
            if n_nonuniq:
                self._add_edges(writers[nonuniq], ctx, scale, unique=False)
            if reuse is not None:
                win_first = page.win_first[lo:hi]
                win_last = page.win_last[lo:hi]
                # Bytes whose last reading call differs start a new lifetime
                # window ("the time between the first and last read of a
                # single data byte within a function call"); close the
                # previous reader's window first.
                fresh = page.reader_call[lo:hi] != call_id
                if fresh.any():
                    prev_readers = page.reader[lo:hi][fresh]
                    valid = prev_readers >= 0
                    if valid.any():
                        reuse.close_windows(
                            prev_readers[valid],
                            win_first[fresh][valid],
                            win_last[fresh][valid],
                        )
                    win_first[fresh] = now
                    win_last[fresh] = now
                repeat = ~fresh
                if repeat.any():
                    win_last[repeat] = now
                if n_nonuniq:
                    page.reuse_count[lo:hi][nonuniq] += 1
                    reuse.fn(ctx).reuse_accesses += n_nonuniq * scale
            page.reader[lo:hi] = ctx
            page.reader_call[lo:hi] = call_id

    # -- batch-transport protocol ------------------------------------------------

    @property
    def batch_time_strict(self) -> bool:  # noqa: D401 - protocol flag
        """Re-use lifetimes are per-access timestamps; demand exact clocks."""
        return self.reuse is not None

    #: Sigil has one memory kernel, the scalar one above: batches replay
    #: through it via the inherited ``on_mem_batch``, so buffering alone buys
    #: nothing and the harness skips the transport unless another attached
    #: tool has a batch kernel.
    batch_beneficial = False

    # -- system calls ---------------------------------------------------------------

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        node = self.tree.child(self._cur.node, f"sys:{name}")
        node.calls += 1
        self._pending_syscalls.append(node)
        sys_fn = self._fn_for(node.id)
        if input_bytes:
            sys_fn.syscall_input_bytes += input_bytes
            self.comm.add(self._cur.node.id, node.id, unique=input_bytes)

    def on_syscall_exit(self, name: str, output_bytes: int) -> None:
        node = self._pending_syscalls.pop()
        if output_bytes:
            self._fn_for(node.id).syscall_output_bytes += output_bytes
            self.comm.add(node.id, self._cur.node.id, unique=output_bytes)

    # -- finalisation ------------------------------------------------------------------

    def _finalise_page(self, page: ShadowPage) -> None:
        """Eviction under the memory limit: salvage the page's reuse state."""
        if self.reuse is not None:
            self._close_and_retire(page, 0, len(page.writer), self.reuse)

    def on_run_end(self) -> None:
        if self._finalised:
            return
        self._finalised = True
        if self.reuse is not None:
            for page in self.shadow.pages():
                readers = page.reader
                valid = readers >= 0
                if valid.any():
                    self.reuse.close_windows(
                        readers[valid], page.win_first[valid], page.win_last[valid]
                    )
                touched = (page.writer >= 0) | valid
                if touched.any():
                    self.reuse.retire_bytes(page.reuse_count[touched])

    # -- self-telemetry -----------------------------------------------------------------

    def record_telemetry(self, telemetry) -> None:
        """Publish the profiler's own cost/footprint into ``telemetry``.

        Pull-based: called once after the run, so the per-event hot path
        never touches a metric.  Covers the shadow-table footprint (live and
        peak), the unique/non-unique/local classification totals, and the
        instruction-count clock.
        """
        shadow = self.shadow
        telemetry.gauge("sigil.shadow.live_pages").set(shadow.live_pages)
        telemetry.gauge("sigil.shadow.peak_pages").set(shadow.peak_pages)
        telemetry.gauge("sigil.shadow.live_entries").set(
            shadow.live_pages * SHADOW_PAGE_SIZE
        )
        telemetry.gauge("sigil.shadow.pages_evicted").set(shadow.pages_evicted)
        telemetry.gauge("sigil.shadow.shadow_bytes").set(shadow.shadow_bytes)
        telemetry.gauge("sigil.shadow.peak_shadow_bytes").set(
            shadow.peak_shadow_bytes
        )
        unique = nonunique = local = 0
        for (writer, reader), edge in self.comm.items():
            unique += edge.unique_bytes
            nonunique += edge.nonunique_bytes
            if writer == reader:
                local += edge.unique_bytes
        telemetry.counter("sigil.bytes.unique").inc(unique)
        telemetry.counter("sigil.bytes.nonunique").inc(nonunique)
        telemetry.counter("sigil.bytes.local_unique").inc(local)
        telemetry.gauge("sigil.comm_edges").set(len(self.comm))
        telemetry.gauge("sigil.contexts").set(
            sum(1 for n in self.tree.nodes if n.parent is not None)
        )
        telemetry.counter("sigil.instructions").inc(self.time)

    # -- results ------------------------------------------------------------------------

    def profile(self) -> SigilProfile:
        """Snapshot the run's results (call after the run completed)."""
        self.on_run_end()
        stats = ShadowStats(
            live_pages=self.shadow.live_pages,
            peak_pages=self.shadow.peak_pages,
            pages_evicted=self.shadow.pages_evicted,
            shadow_bytes=self.shadow.shadow_bytes,
            peak_shadow_bytes=self.shadow.peak_shadow_bytes,
        )
        return SigilProfile(
            self.config,
            self.tree,
            self.functions,
            self.comm,
            self.reuse,
            self.events,
            stats,
            self.time,
        )
