"""Sub-tree merging and inclusive costs (Figure 2).

"An accelerator designed for a function node in the call tree should include
all of the functions in the sub-tree to absorb the cost of communication. ...
We draw boxes around a node and its entire sub-tree.  Any dashed edges within
the box are then discarded and edges flowing in/out of the box are
accumulated into the communication cost of the parent node.  We sum
measurements such as computing operations and CPU memory traffic to provide
the software and platform-independent costs for the node.  We call the
accumulated costs for a node the inclusive cost of communication and
computation for the entire sub-tree." (section II-C1)

Timing (the paper's :math:`t_{sw}`) comes from the Callgrind-equivalent
profile, joined to Sigil's context by call path.  A paired run's two
profiles share one tree, so the lookup returns the context itself; stored
profiles load into two trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.callgrind.collector import CallgrindProfile
from repro.common.cct import SYSCALL_PREFIX, ContextCosts, ContextNode
from repro.core.profiler import SigilProfile

__all__ = ["InclusiveCosts", "MergedNode", "compute_inclusive", "subtree_has_syscall"]


@dataclass(frozen=True)
class InclusiveCosts:
    """Costs of a node with its entire sub-tree merged into one box."""

    ops: int
    iops: int
    flops: int
    unique_input_bytes: int
    unique_output_bytes: int
    #: Full Callgrind cycle estimate (instructions + miss/branch penalties).
    est_cycles: float
    calls: int
    #: Raw Callgrind event counts, so downstream models can re-weigh them.
    instructions: int = 0
    branch_misses: int = 0
    l1_misses: int = 0
    ll_misses: int = 0

    @property
    def unique_comm_bytes(self) -> int:
        return self.unique_input_bytes + self.unique_output_bytes


@dataclass(frozen=True)
class MergedNode:
    """A calltree node considered at merged (sub-tree) granularity."""

    node: ContextNode
    costs: InclusiveCosts

    @property
    def name(self) -> str:
        return self.node.name


def compute_inclusive(
    sigil: SigilProfile,
    callgrind: Optional[CallgrindProfile],
    node: ContextNode,
) -> InclusiveCosts:
    """Merge ``node``'s entire sub-tree and return its inclusive costs.

    Data edges internal to the sub-tree are discarded; unique bytes crossing
    the boundary become the merged node's input/output communication.
    """
    subtree: Set[int] = sigil.comm.subtree_ids(node)
    iops = sum(sigil.fn_comm(ctx_id).iops for ctx_id in subtree)
    flops = sum(sigil.fn_comm(ctx_id).flops for ctx_id in subtree)
    inp, out = sigil.comm.boundary_bytes(subtree)

    cg = ContextCosts()
    est_cycles = 0.0
    cg_node = callgrind.tree.find(node.path) if callgrind is not None else None
    if cg_node is not None:
        cg = callgrind.inclusive_costs(cg_node)
        est_cycles = callgrind.cycle_model.estimate(
            cg.instructions, cg.branch_misses, cg.l1_misses, cg.ll_misses
        )
    return InclusiveCosts(
        ops=iops + flops,
        iops=iops,
        flops=flops,
        unique_input_bytes=inp,
        unique_output_bytes=out,
        est_cycles=est_cycles,
        calls=node.calls,
        instructions=cg.instructions,
        branch_misses=cg.branch_misses,
        l1_misses=cg.l1_misses,
        ll_misses=cg.ll_misses,
    )


def subtree_has_syscall(node: ContextNode) -> bool:
    """True if any context in the sub-tree is a system-call pseudo-node."""
    return any(sub.name.startswith(SYSCALL_PREFIX) for sub in node.walk())


def inclusive_cost_table(
    sigil: SigilProfile, callgrind: Optional[CallgrindProfile]
) -> Dict[int, InclusiveCosts]:
    """Inclusive costs for every context (convenience for reports)."""
    return {
        node.id: compute_inclusive(sigil, callgrind, node)
        for node in sigil.contexts()
    }
