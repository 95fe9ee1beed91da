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

The classification is per byte, but the work is per run: a shadow page
stores its runs of identical records (see :mod:`repro.core.shadow`), and
the memory kernel bisects to the runs an access covers, classifies each
once and splices the new records back in.

Time is counted in retired instructions, "an architecture-independent proxy
for execution time" (section IV-B): every operation, memory access, and
branch advances the clock.

In event mode the profiler also records the run as segments joined by
order, call and data edges (see :mod:`repro.core.segments`).  It writes the
log straight into columns: one list per segment field, a segment's id being
its row, order/call edges as ``(kind, src, dst)`` rows, and data bytes
summed per ``(src, dst)`` pair.  :meth:`SigilProfiler.profile` turns them
into :class:`~repro.core.segments.EventArrays` once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.cct import SYSCALL_PREFIX, ContextNode, ContextTracker, ContextTree
from repro.core.aggregate import CommMatrix, FnComm
from repro.core.config import SigilConfig
from repro.core.reuse import ReuseStats
from repro.core.segments import (
    DATA_EDGE_DTYPE,
    OC_EDGE_DTYPE,
    OC_KIND_CALL,
    OC_KIND_ORDER,
    SEG_DTYPE,
    EventArrays,
)
from repro.core.shadow import (
    SHADOW_PAGE_SIZE,
    ShadowMemory,
    ShadowPage,
    record_layout,
)
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
    was enabled, the event log (``events``, an
    :class:`~repro.core.segments.EventArrays`).
    """

    def __init__(
        self,
        config: SigilConfig,
        tree: ContextTree,
        functions: Dict[int, FnComm],
        comm: CommMatrix,
        reuse: Optional[ReuseStats],
        events: Optional[EventArrays],
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
            if writer >= 0 and self.tree.node(writer).name.startswith(SYSCALL_PREFIX):
                continue
            total += edge.unique_bytes
        return total

    # -- by-name aggregation (flat, context-insensitive view) ------------------

    def by_name(self) -> Dict[str, FnComm]:
        """Sum self costs over all contexts sharing a function name."""
        out: Dict[str, FnComm] = {}
        for node in self.contexts():
            comm = self.functions.get(node.id)
            if comm is not None:
                out.setdefault(node.name, FnComm()).add(comm)
        return out

    def total_ops(self) -> int:
        return sum(fc.ops for fc in self.functions.values())


class SigilProfiler(BaseObserver):
    """Observer implementing Sigil's shadow-memory methodology.

    Each event goes first to the profiler's own calling-context layer
    (``contexts``, which a paired Callgrind collector follows), then to the
    segments and shadow memory.
    """

    def __init__(self, config: Optional[SigilConfig] = None):
        self.config = config if config is not None else SigilConfig()
        self.contexts = ContextTracker()
        self.tree = self.contexts.tree
        self.comm = CommMatrix()
        self.functions: Dict[int, FnComm] = self.contexts.costs
        self.reuse: Optional[ReuseStats] = (
            ReuseStats() if self.config.reuse_mode else None
        )
        self.event_mode = self.config.event_mode
        # The event log's columns (see the module docstring).  Data edges
        # are a dict because one segment usually consumes many bytes from
        # the same producer.
        self._seg_ctx: List[int] = []
        self._seg_call: List[int] = []
        self._seg_start: List[int] = []
        self._seg_ops: List[int] = []
        self._seg_thread: List[int] = []
        self._ordercall: List[Tuple[int, int, int]] = []
        self._data: Optional[Dict[Tuple[int, int], int]] = (
            {} if self.event_mode else None
        )
        self.shadow = ShadowMemory(
            reuse_mode=self.config.reuse_mode,
            event_mode=self.config.event_mode,
            max_pages=self.config.max_shadow_pages,
            on_evict=self._finalise_page,
        )
        self._unit_shift = self.config.line_size.bit_length() - 1
        self._unit_size = self.config.line_size
        self._layout = record_layout(
            reuse_mode=self.config.reuse_mode, event_mode=self.config.event_mode
        )
        #: Page chunks the memory kernel handled, and the stored runs they
        #: met (published by :meth:`record_telemetry`).
        self.shadow_chunks = 0
        self.shadow_runs = 0

        self.time = 0
        self._finalised = False
        self.on_thread_switch(0)

    def on_thread_switch(self, tid: int) -> None:
        # Each (virtual) thread has its own call stack in the tracker; the
        # shadow memory is shared, so cross-thread communication classifies
        # exactly like any producer-consumer pair.  In event mode a new
        # thread's root frame starts a segment.
        self.contexts.on_thread_switch(tid)
        frame = self.contexts.frame
        if self.event_mode and frame.segment is None:
            frame.segment = self._open_segment(0, frame.call_id)

    # -- function structure --------------------------------------------------

    def _open_segment(self, ctx: int, call: int) -> int:
        """Append a segment of ``call`` starting now on the current thread;
        return its id."""
        seg = len(self._seg_ops)
        self._seg_ctx.append(ctx)
        self._seg_call.append(call)
        self._seg_start.append(self.time)
        self._seg_ops.append(0)
        self._seg_thread.append(self.contexts.tid)
        return seg

    def on_fn_enter(self, name: str) -> None:
        # In event mode every frame is running in a segment.
        contexts = self.contexts
        caller = contexts.frame.segment
        contexts.on_fn_enter(name)
        if self.event_mode:
            frame = contexts.frame
            frame.segment = self._open_segment(frame.node.id, frame.call_id)
            self._ordercall.append((OC_KIND_CALL, caller, frame.segment))

    def on_fn_exit(self, name: str) -> None:
        contexts = self.contexts
        contexts.on_fn_exit(name)
        if self.event_mode:
            # The resumed caller continues in a fresh segment, conservatively
            # ordered after its previous fragment (Figure 3).
            resumed = contexts.frame
            prev = resumed.segment
            resumed.segment = self._open_segment(resumed.node.id, resumed.call_id)
            self._ordercall.append((OC_KIND_ORDER, prev, resumed.segment))

    # -- computation -----------------------------------------------------------

    def on_op(self, kind: OpKind, count: int) -> None:
        self.time += count
        self.contexts.on_op(kind, count)
        seg = self.contexts.frame.segment
        if seg is not None:
            self._seg_ops[seg] += count

    def on_branch(self, site: int, taken: bool) -> None:
        self.time += 1

    # -- memory ------------------------------------------------------------------

    def _retire_range(self, page: ShadowPage, i: int, j: int, lo: int, hi: int) -> None:
        """The values of units ``[lo, hi)``, which runs ``[i, j)`` cover, die
        (overwrite, eviction or end of run): close their re-use windows and
        retire their re-use counts, one run at a time."""
        reuse = self.reuse
        fmt, _, writer_i, reader_i, _, _, count_i, first_i, last_i = self._layout
        isz = fmt.size
        unpack = fmt.unpack_from
        bin_size = reuse.bin_size
        starts = page.starts
        recs = page.recs
        closed = []
        a = lo
        for k in range(i, j):
            b = starts[k + 1] if k + 1 < j else hi
            n = b - a
            a = b
            rec = unpack(recs, k * isz)
            reader = rec[reader_i]
            if reader >= 0:
                lifetime = rec[last_i] - rec[first_i]
                if lifetime > 0:
                    closed.append((reader, lifetime // bin_size, n, n * lifetime))
            if rec[writer_i] >= 0 or reader >= 0:
                reuse.retire_run(rec[count_i], n)
        # Ascending (ctx, bin), so dict insertion order does not depend on
        # how the range split into runs.
        closed.sort()
        for window in closed:
            reuse.add_windows(*window)

    def on_mem_write(self, addr: int, size: int) -> None:
        self.time += 1
        self.contexts.on_mem_write(addr, size)
        if size <= 0:
            # A zero-byte store moves no data: it must touch no shadow
            # state.  (Without this guard the unit arithmetic below rounds
            # an unaligned empty range up to one unit and fabricates a
            # whole line of communication at line granularity.)
            return
        cur = self.contexts.frame
        layout = self._layout
        # The written value replaces the whole record: new writer (and
        # segment), no reader, no re-use history.
        rec = list(layout.initial)
        rec[layout.writer] = cur.node.id
        if layout.writer_seg is not None:
            rec[layout.writer_seg] = cur.segment
        record = layout.struct.pack(*rec)
        reuse = self.reuse
        lo_unit = addr >> self._unit_shift
        n_units = ((addr + size - 1) >> self._unit_shift) - lo_unit + 1
        for page, lo, hi in self.shadow.chunks(lo_unit, n_units):
            i = bisect_right(page.starts, lo) - 1
            j = bisect_left(page.starts, hi, i + 1)
            if reuse is not None:
                self.shadow_chunks += 1
                self.shadow_runs += j - i
                self._retire_range(page, i, j, lo, hi)
            page.splice(i, j, lo, hi, [record])

    def on_mem_read(self, addr: int, size: int) -> None:
        self.time += 1
        self.contexts.on_mem_read(addr, size)
        if size <= 0:
            return  # zero-byte loads consume no data (see on_mem_write)
        cur = self.contexts.frame
        ctx = cur.node.id
        call_id = cur.call_id
        scale = self._unit_size
        now = self.time
        reuse = self.reuse
        edges = self._data
        comm = self.comm
        fmt, _, writer_i, reader_i, call_i, seg_i, count_i, first_i, last_i = (
            self._layout
        )
        bin_size = reuse.bin_size if reuse is not None else 0
        isz = fmt.size
        unpack = fmt.unpack_from
        pack = fmt.pack
        lo_unit = addr >> self._unit_shift
        n_units = ((addr + size - 1) >> self._unit_shift) - lo_unit + 1
        for page, lo, hi in self.shadow.chunks(lo_unit, n_units):
            starts = page.starts
            recs = page.recs
            i = bisect_right(starts, lo) - 1
            j = bisect_left(starts, hi, i + 1)
            self.shadow_chunks += 1
            self.shadow_runs += j - i
            # Per-run contributions: (writer, units) of unique and
            # non-unique reads, (producer segment, units) of data edges,
            # (reader, bin, windows, lifetime sum) of closed windows.
            unique = []
            nonunique = []
            data = []
            closed = []
            new = []
            reused = 0
            a = lo
            for k in range(i, j):
                b = starts[k + 1] if k + 1 < j else hi
                n = b - a
                a = b
                rec = list(unpack(recs, k * isz))
                # Uniqueness compares the reading *function context* with
                # the last reader; re-use windows compare the *call number*.
                if rec[reader_i] == ctx:
                    nonunique.append((rec[writer_i], n))
                    if reuse is not None:
                        rec[count_i] += 1
                        reused += n
                else:
                    unique.append((rec[writer_i], n))
                    if edges is not None and rec[seg_i] >= 0:
                        data.append((rec[seg_i], n))
                if reuse is not None:
                    if rec[call_i] != call_id:
                        # A new reading call starts a lifetime window ("the
                        # time between the first and last read of a single
                        # data byte within a function call"); close the
                        # previous reader's window first.
                        lifetime = rec[last_i] - rec[first_i]
                        if rec[reader_i] >= 0 and lifetime > 0:
                            closed.append(
                                (rec[reader_i], lifetime // bin_size, n, n * lifetime)
                            )
                        rec[first_i] = now
                    rec[last_i] = now
                rec[reader_i] = ctx
                rec[call_i] = call_id
                new.append(pack(*rec))
            page.splice(i, j, lo, hi, new)
            if j - i > 1:
                # Apply in ascending key order, so dict insertion order --
                # and with it the event-log bytes -- does not depend on how
                # the chunk split into runs.
                unique.sort()
                data.sort()
                nonunique.sort()
                closed.sort()
            for writer, n in unique:
                comm.add(writer, ctx, unique=n * scale)
            dst = cur.segment
            for src, n in data:
                if src != dst:  # a segment reading its own writes: no edge
                    edges[src, dst] = edges.get((src, dst), 0) + n * scale
            for writer, n in nonunique:
                comm.add(writer, ctx, nonunique=n * scale)
            for window in closed:
                reuse.add_windows(*window)
            if reused:
                reuse.fn(ctx).reuse_accesses += reused * scale

    # -- batch-transport protocol ------------------------------------------------

    @property
    def batch_time_strict(self) -> bool:  # noqa: D401 - protocol flag
        """Re-use lifetimes are per-access timestamps; demand exact clocks."""
        return self.reuse is not None

    # -- system calls ---------------------------------------------------------------

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        node = self.contexts.on_syscall_enter(name, input_bytes)
        if input_bytes:
            self.functions[node.id].syscall_input_bytes += input_bytes
            self.comm.add(self.contexts.frame.node.id, node.id, unique=input_bytes)

    def on_syscall_exit(self, name: str, output_bytes: int) -> None:
        node = self.contexts.on_syscall_exit(name, output_bytes)
        if output_bytes:
            self.functions[node.id].syscall_output_bytes += output_bytes
            self.comm.add(node.id, self.contexts.frame.node.id, unique=output_bytes)

    # -- finalisation ------------------------------------------------------------------

    def _finalise_page(self, page: ShadowPage) -> None:
        """The page's values die (eviction or end of run)."""
        if self.reuse is not None:
            self._retire_range(page, 0, len(page.starts), 0, SHADOW_PAGE_SIZE)

    def on_run_end(self) -> None:
        if self._finalised:
            return
        self._finalised = True
        for page in self.shadow.pages():
            self._finalise_page(page)

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
        telemetry.gauge("sigil.shadow.live_runs").set(shadow.live_runs)
        telemetry.gauge("sigil.shadow.live_entries").set(
            shadow.live_pages * SHADOW_PAGE_SIZE
        )
        telemetry.gauge("sigil.shadow.pages_evicted").set(shadow.pages_evicted)
        telemetry.gauge("sigil.shadow.shadow_bytes").set(shadow.shadow_bytes)
        telemetry.gauge("sigil.shadow.peak_shadow_bytes").set(
            shadow.peak_shadow_bytes
        )
        telemetry.counter("sigil.shadow.chunks").inc(self.shadow_chunks)
        telemetry.counter("sigil.shadow.runs").inc(self.shadow_runs)
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
        telemetry.gauge("sigil.contexts").set(len(self.tree) - 1)
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
            self._event_arrays() if self.event_mode else None,
            stats,
            self.time,
        )

    def _event_arrays(self) -> EventArrays:
        """The event log so far as :class:`EventArrays`."""
        segs = np.empty(len(self._seg_ops), dtype=SEG_DTYPE)
        segs["ctx"] = self._seg_ctx
        segs["call"] = self._seg_call
        segs["start"] = self._seg_start
        segs["ops"] = self._seg_ops
        segs["thread"] = self._seg_thread
        data = self._data
        return EventArrays(
            segs=segs,
            ordercall=np.array(self._ordercall, dtype=OC_EDGE_DTYPE),
            data=np.fromiter(
                ((src, dst, n) for (src, dst), n in data.items()),
                dtype=DATA_EDGE_DTYPE,
                count=len(data),
            ),
        )
