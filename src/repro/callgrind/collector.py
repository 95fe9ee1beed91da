"""Callgrind-equivalent observer: context-sensitive calltree costs.

This is the reproduction's stand-in for Callgrind proper.  It attributes
per-context self costs (instructions, operations, memory traffic, cache
misses, branch mispredictions, syscalls) over a calling-context tree, and can
roll self costs up into inclusive costs -- exactly the inputs Sigil's
partitioning case study takes from Callgrind ("an estimated software run time
calculated by Callgrind" and "the number of operations in the function").

The tree, the calls and the operation and traffic counts live in a
:class:`~repro.common.cct.ContextTracker`.  Alone, the collector drives its
own; in the paired run it follows Sigil's and adds only what is its own:
cache misses, branches, mispredictions and system calls.

Instruction count: our substrates do not stream an explicit instruction-fetch
event, so retired instructions are the sum of primitive events (operations +
memory accesses + branches), which is exactly the set of instructions the
mini-VM retires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.callgrind.branch import BimodalPredictor
from repro.callgrind.cache import CacheConfig, CacheHierarchy
from repro.callgrind.cycles import DEFAULT_CYCLE_MODEL, CycleModel
from repro.common.cct import (
    SYSCALL_PREFIX,
    ContextCosts,
    ContextNode,
    ContextTracker,
    ContextTree,
)
from repro.trace.observer import BaseObserver, _expand_lines, fan_out

__all__ = ["CallgrindCosts", "CallgrindProfile", "CallgrindCollector"]


#: Self costs of one calling context: Callgrind's name for the record both
#: tools charge.
CallgrindCosts = ContextCosts


@dataclass
class CallgrindProfile:
    """The output of a Callgrind-equivalent run."""

    tree: ContextTree
    self_costs: Dict[int, CallgrindCosts] = field(default_factory=dict)
    cycle_model: CycleModel = DEFAULT_CYCLE_MODEL

    def costs_of(self, ctx_id: int) -> CallgrindCosts:
        """Self costs of a context (zero if it ran nothing)."""
        return self.self_costs.get(ctx_id) or CallgrindCosts()

    def inclusive_costs(self, node: ContextNode) -> CallgrindCosts:
        """Self costs of ``node`` plus all of its calltree descendants."""
        total = CallgrindCosts()
        for sub in node.walk():
            total.add(self.costs_of(sub.id))
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

    ``contexts`` is another tool's calling-context layer to follow (the
    paired run hands it Sigil's); the collector then runs only its own
    kernels.  Without one it builds its own layer and drives it: every
    event reaches the layer first.
    """

    #: The cache simulator has a batch kernel, so the harness puts the
    #: transport in front of this collector.
    batch_beneficial = True

    def __init__(
        self,
        *,
        contexts: Optional[ContextTracker] = None,
        d1: Optional[CacheConfig] = None,
        ll: Optional[CacheConfig] = None,
        simulate_cache: bool = True,
        simulate_branch: bool = True,
        cycle_model: CycleModel = DEFAULT_CYCLE_MODEL,
    ):
        if contexts is None:
            contexts = ContextTracker()
            for hook in ("on_fn_enter", "on_fn_exit", "on_thread_switch", "on_op",
                         "on_syscall_exit"):
                setattr(self, hook, getattr(contexts, hook))
            for hook in ("on_mem_read", "on_mem_write", "on_mem_batch_runs",
                         "on_syscall_enter"):
                # The layer first, then this collector's kernel.
                both = (getattr(contexts, hook), getattr(self, hook))
                setattr(self, hook, fan_out(hook, both))
        self.contexts = contexts
        self.tree = contexts.tree
        self.profile = CallgrindProfile(self.tree, contexts.costs, cycle_model)
        self.caches = CacheHierarchy(d1, ll) if simulate_cache else None
        self.predictor = BimodalPredictor() if simulate_branch else None

    # -- costs ---------------------------------------------------------------

    def on_mem_read(self, addr: int, size: int) -> None:
        if self.caches is not None:
            l1_misses, ll_misses = self.caches.access(addr, size)
            costs = self.contexts.cur
            costs.l1_misses += l1_misses
            costs.ll_misses += ll_misses

    on_mem_write = on_mem_read

    def on_mem_batch_runs(self, addrs, rkeys, rends) -> None:
        """Simulate a run-length batch of accesses at once.

        The cache simulation runs over the batch's concatenated line
        expansion via :meth:`CacheHierarchy.access_lines` -- miss counts
        identical to the scalar path, since cache state depends only on the
        line-touch stream, which the batch preserves.
        """
        caches = self.caches
        if caches is None or len(addrs) == 0:
            return
        if len(rkeys) == 1:
            sizes = rkeys[0] >> 1
        else:
            lens = [end - start for start, end in zip([0, *rends], rends)]
            sizes = np.repeat(np.asarray(rkeys, dtype=np.int64) >> 1, lens)
        lines, _ = _expand_lines(addrs, sizes, caches.d1._line_shift)
        l1, ll = caches.access_lines(lines)
        costs = self.contexts.cur
        costs.l1_misses += l1
        costs.ll_misses += ll

    def on_branch(self, site: int, taken: bool) -> None:
        costs = self.contexts.cur
        costs.branches += 1
        if self.predictor is not None and self.predictor.record(site, taken):
            costs.branch_misses += 1

    def on_syscall_enter(self, name: str, input_bytes: int) -> None:
        self.contexts.cur.syscalls += 1

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
            node.calls
            for node in self.tree.nodes[1:]  # past the root
            if not node.name.startswith(SYSCALL_PREFIX)
        )
        telemetry.counter("callgrind.calls").inc(calls)
        telemetry.counter("callgrind.instructions").inc(total.instructions)
        telemetry.counter("callgrind.l1_misses").inc(total.l1_misses)
        telemetry.counter("callgrind.ll_misses").inc(total.ll_misses)
        telemetry.counter("callgrind.branches").inc(total.branches)
        telemetry.counter("callgrind.branch_misses").inc(total.branch_misses)
        telemetry.counter("callgrind.syscalls").inc(total.syscalls)

