"""Callgrind-equivalent observer: context-sensitive calltree costs.

This is the reproduction's stand-in for Callgrind proper.  It maintains a
calling-context tree, attributes per-context self costs (instructions,
operations, memory traffic, cache misses, branch mispredictions, syscalls),
and can roll self costs up into inclusive costs -- exactly the inputs Sigil's
partitioning case study takes from Callgrind ("an estimated software run time
calculated by Callgrind" and "the number of operations in the function").

Instruction count: our substrates do not stream an explicit instruction-fetch
event, so retired instructions are accounted as the sum of primitive events
(operations + memory accesses + branches), which is exactly the set of
instructions the mini-VM retires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.callgrind.branch import BimodalPredictor
from repro.callgrind.cache import CacheConfig, CacheHierarchy
from repro.callgrind.cycles import DEFAULT_CYCLE_MODEL, CycleModel
from repro.common.cct import ContextNode, ContextTree
from repro.trace.events import OpKind
from repro.trace.observer import BaseObserver, _expand_lines

__all__ = ["CallgrindCosts", "CallgrindProfile", "CallgrindCollector"]


@dataclass
class CallgrindCosts:
    """Self costs of one calling context."""

    instructions: int = 0
    iops: int = 0
    flops: int = 0
    reads: int = 0
    read_bytes: int = 0
    writes: int = 0
    write_bytes: int = 0
    l1_misses: int = 0
    ll_misses: int = 0
    branches: int = 0
    branch_misses: int = 0
    syscalls: int = 0

    def add(self, other: "CallgrindCosts") -> None:
        self.instructions += other.instructions
        self.iops += other.iops
        self.flops += other.flops
        self.reads += other.reads
        self.read_bytes += other.read_bytes
        self.writes += other.writes
        self.write_bytes += other.write_bytes
        self.l1_misses += other.l1_misses
        self.ll_misses += other.ll_misses
        self.branches += other.branches
        self.branch_misses += other.branch_misses
        self.syscalls += other.syscalls

    def copy(self) -> "CallgrindCosts":
        return CallgrindCosts(
            self.instructions,
            self.iops,
            self.flops,
            self.reads,
            self.read_bytes,
            self.writes,
            self.write_bytes,
            self.l1_misses,
            self.ll_misses,
            self.branches,
            self.branch_misses,
            self.syscalls,
        )

    @property
    def ops(self) -> int:
        """Total computational operations (the paper's platform-independent
        computation metric)."""
        return self.iops + self.flops


@dataclass
class CallgrindProfile:
    """The output of a Callgrind-equivalent run."""

    tree: ContextTree
    self_costs: Dict[int, CallgrindCosts] = field(default_factory=dict)
    cycle_model: CycleModel = DEFAULT_CYCLE_MODEL

    def costs_of(self, ctx_id: int) -> CallgrindCosts:
        costs = self.self_costs.get(ctx_id)
        if costs is None:
            costs = CallgrindCosts()
            self.self_costs[ctx_id] = costs
        return costs

    def inclusive_costs(self, node: ContextNode) -> CallgrindCosts:
        """Self costs of ``node`` plus all of its calltree descendants."""
        total = CallgrindCosts()
        for sub in node.walk():
            costs = self.self_costs.get(sub.id)
            if costs is not None:
                total.add(costs)
        return total

    def estimated_cycles(self, node: ContextNode, *, inclusive: bool = True) -> float:
        """Callgrind's estimated cycle count for a context (the paper's t_sw)."""
        costs = self.inclusive_costs(node) if inclusive else self.costs_of(node.id)
        return self.cycle_model.estimate(
            costs.instructions, costs.branch_misses, costs.l1_misses, costs.ll_misses
        )

    def total_cycles(self) -> float:
        """Estimated cycles of the whole run."""
        return self.estimated_cycles(self.tree.root, inclusive=True)


class CallgrindCollector(BaseObserver):
    """Observer producing a :class:`CallgrindProfile`.

    Parameters mirror Callgrind's cache knobs; pass ``d1=None, ll=None`` with
    ``simulate_cache=False`` to skip cache simulation (faster, costs lose
    miss counts).
    """

    #: The cache simulator has a batch kernel, so the harness puts the
    #: transport in front of this collector.
    batch_beneficial = True

    def __init__(
        self,
        *,
        d1: Optional[CacheConfig] = None,
        ll: Optional[CacheConfig] = None,
        simulate_cache: bool = True,
        simulate_branch: bool = True,
        cycle_model: CycleModel = DEFAULT_CYCLE_MODEL,
    ):
        self.tree = ContextTree()
        self.profile = CallgrindProfile(self.tree, cycle_model=cycle_model)
        self.caches = CacheHierarchy(d1, ll) if simulate_cache else None
        self.predictor = BimodalPredictor() if simulate_branch else None
        self._cur: ContextNode = self.tree.root
        self._cur_costs: CallgrindCosts = self.profile.costs_of(self.tree.root.id)
        self._stack: List[ContextNode] = []
        # Per-thread call stacks; caches/predictor stay shared (one machine).
        self._tid = 0
        self._threads: Dict[int, List[ContextNode]] = {0: self._stack}
        self._thread_cur: Dict[int, ContextNode] = {0: self._cur}

    def on_thread_switch(self, tid: int) -> None:
        if tid == self._tid:
            return
        self._thread_cur[self._tid] = self._cur
        if tid not in self._threads:
            self._threads[tid] = []
            self._thread_cur[tid] = self.tree.root
        self._tid = tid
        self._stack = self._threads[tid]
        self._cur = self._thread_cur[tid]
        self._cur_costs = self.profile.costs_of(self._cur.id)

    # -- structure -------------------------------------------------------

    def on_fn_enter(self, name: str) -> None:
        self._stack.append(self._cur)
        self._cur = self.tree.child(self._cur, name)
        self._cur.calls += 1
        self._cur_costs = self.profile.costs_of(self._cur.id)

    def on_fn_exit(self, name: str) -> None:
        self._cur = self._stack.pop()
        self._cur_costs = self.profile.costs_of(self._cur.id)

    # -- costs ---------------------------------------------------------------

    def on_op(self, kind: OpKind, count: int) -> None:
        costs = self._cur_costs
        costs.instructions += count
        if kind is OpKind.FLOAT:
            costs.flops += count
        else:
            costs.iops += count

    def on_mem_read(self, addr: int, size: int) -> None:
        costs = self._cur_costs
        costs.instructions += 1
        costs.reads += 1
        costs.read_bytes += size
        if self.caches is not None:
            l1_misses, ll_misses = self.caches.access(addr, size)
            costs.l1_misses += l1_misses
            costs.ll_misses += ll_misses

    def on_mem_write(self, addr: int, size: int) -> None:
        costs = self._cur_costs
        costs.instructions += 1
        costs.writes += 1
        costs.write_bytes += size
        if self.caches is not None:
            l1_misses, ll_misses = self.caches.access(addr, size)
            costs.l1_misses += l1_misses
            costs.ll_misses += ll_misses

    def on_mem_batch_runs(self, addrs, rkeys, rends) -> None:
        """Account a run-length batch of accesses at once.

        The counter sums come straight from the run descriptors, so a
        typical batch (a handful of runs) does no array work beyond the
        line expansion.  The cache simulation runs over the batch's
        concatenated line expansion via :meth:`CacheHierarchy.access_lines`
        -- miss counts identical to the scalar path, since cache state
        depends only on the line-touch stream, which the batch preserves.
        """
        n = len(addrs)
        if n == 0:
            return
        costs = self._cur_costs
        costs.instructions += n
        reads = read_bytes = writes = write_bytes = 0
        prev = 0
        for key, end in zip(rkeys, rends):
            cnt = end - prev
            prev = end
            size = key >> 1
            if key & 1:
                writes += cnt
                write_bytes += cnt * size
            else:
                reads += cnt
                read_bytes += cnt * size
        costs.reads += reads
        costs.read_bytes += read_bytes
        costs.writes += writes
        costs.write_bytes += write_bytes
        caches = self.caches
        if caches is None:
            return
        if len(rkeys) == 1:
            sizes = rkeys[0] >> 1
        else:
            lens = [end - start for start, end in zip([0, *rends], rends)]
            sizes = np.repeat(np.asarray(rkeys, dtype=np.int64) >> 1, lens)
        lines, _ = _expand_lines(addrs, sizes, caches.d1._line_shift)
        l1, ll = caches.access_lines(lines)
        costs.l1_misses += l1
        costs.ll_misses += ll

    def on_branch(self, site: int, taken: bool) -> None:
        costs = self._cur_costs
        costs.instructions += 1
        costs.branches += 1
        if self.predictor is not None and self.predictor.record(site, taken):
            costs.branch_misses += 1

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        self._cur_costs.syscalls += 1

    def on_run_end(self) -> None:
        if any(stack for stack in self._threads.values()):
            raise RuntimeError("unbalanced function enter/exit in trace")

    def record_telemetry(self, telemetry) -> None:
        """Publish the collector's whole-run totals into ``telemetry``.

        One pass over the per-context self costs after the run: calls made,
        instructions retired, cache-simulator and branch-predictor event
        counts.  Nothing here runs on the per-event path.
        """
        total = CallgrindCosts()
        for costs in self.profile.self_costs.values():
            total.add(costs)
        calls = sum(
            node.calls for node in self.tree.nodes if node.parent is not None
        )
        telemetry.counter("callgrind.calls").inc(calls)
        telemetry.counter("callgrind.instructions").inc(total.instructions)
        telemetry.counter("callgrind.l1_misses").inc(total.l1_misses)
        telemetry.counter("callgrind.ll_misses").inc(total.ll_misses)
        telemetry.counter("callgrind.branches").inc(total.branches)
        telemetry.counter("callgrind.branch_misses").inc(total.branch_misses)
        telemetry.counter("callgrind.syscalls").inc(total.syscalls)
