"""Batched trace transport: amortise per-access observer dispatch.

The paper's headline cost is tool slowdown -- Sigil runs at ~20-100x native
because every memory access walks the shadow memory (section IV, Figures
4/5).  This reproduction pays the same tax as one Python call per access.
Related work amortises interception instead of paying per event (Scaler's
batched cross-flow interception; Kercher's per-epoch working-set
aggregation), and that is what this module does for the transport layer:

:class:`BatchingTransport` sits between a substrate and its observer.  It
stores memory accesses into a fixed ``array('q')`` address buffer plus a
run-length side table (real access streams are long same-size, same-kind
runs), and hands the downstream observer whole batches in that form through
:meth:`~repro.trace.observer.BaseObserver.on_mem_batch_runs`.  Only memory
is batched: the paper's tool cost is per access, while branches feed
nothing but Callgrind's predictor and arrive too sparsely between flush
boundaries to fill a batch, so they are forwarded scalar.

Batching pays only when whatever consumes a batch has a batch kernel.  A
downstream pipe with one scalar-only member (the Sigil profiler, a
heartbeat) replays every batch access by access, and the transport then
costs a buffer, a replay and a second dispatch for nothing.  So
:func:`repro.harness.transport_for` builds one only when every attached
tool sets ``batch_beneficial``: Callgrind, the line re-use profiler and
the telemetry event counter.  The paper's Sigil+Callgrind pipe therefore
dispatches scalar.

Flush boundaries
----------------
The buffer is flushed -- i.e. all pending accesses are delivered in program
order *before* the boundary event is forwarded -- at:

* function enter and exit (the attributing context must not change
  mid-batch),
* syscall enter and exit,
* thread switches,
* run end, and
* buffer full (when the next access arrives).

Plain op events (``on_op``) and branches (``on_branch``) are forwarded at
once and do **not** flush by default: the instruction clock is a sum and
predictor state depends only on the branch stream's own order, so deferring
accesses past ops and branches leaves every aggregate -- edges, byte
classification, misprediction counts, segment start times, totals --
byte-identical.  The one thing it would skew is *per-access timestamps*
(re-use lifetime windows, exact event interleaving).  Observers whose output
depends on those declare ``batch_time_strict = True`` and the transport then
flushes pending accesses before every op and branch, in exact stream order,
trading batch occupancy for scalar-exact clocks.  Order among memory
accesses is always preserved.

Flushes that collected only a handful of accesses (below
:data:`SCALAR_FLUSH_CUTOFF`) are replayed downstream as scalar calls:
vectorisation below that occupancy costs more than it saves, and
control-dense workloads spend most of their flushes there.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.trace.events import OpKind
from repro.trace.observer import BaseObserver, TraceObserver, _expand_runs

__all__ = ["DEFAULT_BATCH_SIZE", "SCALAR_FLUSH_CUTOFF", "BatchingTransport"]

#: Buffer capacity (accesses) of every transport the harness builds.
DEFAULT_BATCH_SIZE = 4096

#: Flushes holding fewer accesses than this are delivered as plain scalar
#: calls instead of ``on_mem_batch_runs``.  Control-dense workloads flush at
#: every function boundary, so most batches hold only a handful of
#: accesses -- below this occupancy the array kernels' fixed per-batch cost
#: exceeds the whole scalar path, and batching them would *slow the run
#: down*.  Aggregates are identical either way; only the delivery mechanism
#: changes.
SCALAR_FLUSH_CUTOFF = 8


class BatchingTransport(BaseObserver):
    """Accumulate memory accesses and deliver them to ``downstream`` in bulk.

    Parameters
    ----------
    downstream:
        The observer (or :class:`~repro.trace.observer.ObserverPipe`) that
        receives the batches plus all non-memory events.
    batch_size:
        Buffer capacity; the buffer flushes when full and at the boundaries
        documented in the module docstring.
    scalar_cutoff:
        Flushes holding fewer accesses than this are replayed as scalar
        calls (see :data:`SCALAR_FLUSH_CUTOFF`); ``0`` forces every flush
        through the batch hooks, which the kernel-semantics tests use.

    The hot-path handlers (``on_mem_read``/``on_mem_write``) and ``flush``
    are installed as per-instance closures so each buffered access costs
    one indexed store and one compare -- subclasses overriding them must
    rebuild the instance attributes, not just the class methods.  The
    arrays and lists passed downstream are fresh copies per flush;
    downstream observers may retain them.
    """

    def __init__(
        self,
        downstream: TraceObserver,
        batch_size: int = DEFAULT_BATCH_SIZE,
        scalar_cutoff: int = SCALAR_FLUSH_CUTOFF,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive (use the scalar "
                             "path directly instead of a 0-sized transport)")
        self.downstream = downstream
        self.batch_size = batch_size
        self.scalar_cutoff = scalar_cutoff
        self.strict_time = bool(getattr(downstream, "batch_time_strict", False))
        # -- downstream delivery hook (resolved once) ----------------------
        self._runs_hook = getattr(downstream, "on_mem_batch_runs", None)
        # -- transport telemetry (read by record_telemetry) ---------------
        self.flushes = 0
        self.batched_accesses = 0
        self._install_hot_handlers()

    def _install_hot_handlers(self) -> None:
        """Bind the per-access closures and the flush.

        The address buffer is a fixed ``array('q')`` of ``batch_size``
        slots written by index, and the fill count ``n`` lives in this
        scope, shared by the closures: no append, no ``len`` and no
        reallocation per access.  A full buffer flushes when the next
        access finds no free slot (the store raises ``IndexError``), so
        the common path carries no capacity compare; batches and their
        order are the same as flushing the moment the buffer fills.
        """
        cap = self.batch_size
        buf = array("q", bytes(8 * cap))
        slots = np.frombuffer(buf, dtype=np.int64)
        # cell[kind] holds the active run's size for that kind; the other
        # slot is forced to -1, so a single compare per access detects both
        # a size change and a kind flip.
        cell = [-1, -1]
        rkeys: list = []  # (size << 1) | kind per run
        rends: list = []  # exclusive end index per *completed* run
        n = 0
        downstream = self.downstream
        runs_hook = self._runs_hook
        cutoff = self.scalar_cutoff

        def run_break(size, kind):
            cell[1 - kind] = -1
            cell[kind] = size
            if rkeys:
                # The triggering address is already stored; the previous
                # run ends just before it.
                rends.append(n - 1)
            rkeys.append((size << 1) | kind)

        def flush():
            """Deliver all pending accesses downstream, in program order.

            Short flushes (< :data:`SCALAR_FLUSH_CUTOFF`) are replayed as
            scalar calls -- identical semantics, none of the per-batch
            kernel overhead.
            """
            nonlocal n, rkeys, rends
            count = n
            if not count:
                return
            n = 0
            self.flushes += 1
            self.batched_accesses += count
            keys, ends = rkeys, rends
            ends.append(count)
            rkeys, rends = [], []
            cell[0] = cell[1] = -1
            if count < cutoff or runs_hook is None:
                _expand_runs(downstream, buf[:count].tolist(), keys, ends)
            else:
                runs_hook(slots[:count].copy(), keys, ends)

        def on_mem_read(addr, size):
            nonlocal n
            try:
                buf[n] = addr
            except IndexError:
                flush()
                buf[0] = addr
            n += 1
            if size != cell[0]:
                run_break(size, 0)

        def on_mem_write(addr, size):
            nonlocal n
            try:
                buf[n] = addr
            except IndexError:
                flush()
                buf[0] = addr
            n += 1
            if size != cell[1]:
                run_break(size, 1)

        self.flush = flush
        self.on_mem_read = on_mem_read
        self.on_mem_write = on_mem_write

    # -- boundary events (flush, then forward) -----------------------------

    def on_fn_enter(self, name: str) -> None:
        self.flush()
        self.downstream.on_fn_enter(name)

    def on_fn_exit(self, name: str) -> None:
        self.flush()
        self.downstream.on_fn_exit(name)

    def on_op(self, kind: OpKind, count: int) -> None:
        if self.strict_time:
            self.flush()
        self.downstream.on_op(kind, count)

    def on_branch(self, site: int, taken: bool) -> None:
        if self.strict_time:
            self.flush()
        self.downstream.on_branch(site, taken)

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        self.flush()
        self.downstream.on_syscall_enter(name, input_bytes)

    def on_syscall_exit(self, name: str, output_bytes: int) -> None:
        self.flush()
        self.downstream.on_syscall_exit(name, output_bytes)

    def on_thread_switch(self, tid: int) -> None:
        self.flush()
        self.downstream.on_thread_switch(tid)

    def on_run_begin(self) -> None:
        self.downstream.on_run_begin()

    def on_run_end(self) -> None:
        self.flush()
        self.downstream.on_run_end()

    # -- telemetry ---------------------------------------------------------

    @property
    def mean_occupancy(self) -> float:
        """Average accesses delivered per flush (batch-efficiency signal)."""
        if not self.flushes:
            return 0.0
        return self.batched_accesses / self.flushes

    def record_telemetry(self, telemetry) -> None:
        """Publish transport counters once, after the run (pull-based)."""
        telemetry.gauge("batch.size").set(self.batch_size)
        telemetry.gauge("batch.flushes").set(self.flushes)
        telemetry.gauge("batch.accesses").set(self.batched_accesses)
        telemetry.gauge("batch.mean_occupancy").set(self.mean_occupancy)
        telemetry.gauge("batch.strict_time").set(int(self.strict_time))
