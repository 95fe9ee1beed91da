"""HW/SW partitioning: breakeven-speedup and calltree trimming (section II-C1).

The paper's metric (Equation 1)::

                         t_sw
    S_breakeven = ------------------------------------
                   t_sw - (t_comm:ip:accel + t_comm:op:accel)

"the computational speedup that an accelerator for a particular function
would require in order to offset the data-offload costs".  Offload time is
"the time to communicate data to and from the accelerator assuming a fixed
SoC bus bandwidth"; the data volume is *unique* communication, because "a
well designed accelerator ... will include an internal buffer and will not
repeatedly fetch the same data from memory".

The trimming heuristic implements the paper's goal -- "minimize the
breakeven-speedup of all the leaf nodes of a trimmed call tree.  Each branch
of the trimmed calltree should have the least breakeven-speedup at the
bottom of the branch" -- as a recursive choice per node: merge the whole
sub-tree into one candidate when its merged breakeven is at least as good as
the best candidate that splitting would expose below; otherwise keep the
node interior and recurse.  Two structural rules keep candidates physically
meaningful: the entry function is never a candidate, and sub-trees
containing system calls cannot be merged (a fixed-function accelerator
cannot perform I/O; the non-preemptible model of section II-C1 requires all
input ready at call time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.callgrind.collector import CallgrindProfile
from repro.callgrind.cycles import CycleModel
from repro.common.cct import SYSCALL_PREFIX, ContextNode
from repro.core.profiler import SigilProfile
from repro.analysis.merge import InclusiveCosts, compute_inclusive

__all__ = [
    "BusModel",
    "PartitionPolicy",
    "Candidate",
    "TrimmedTree",
    "breakeven_speedup",
    "trim_calltree",
]


@dataclass(frozen=True)
class BusModel:
    """Fixed-bandwidth SoC bus between host memory and accelerators."""

    bytes_per_cycle: float = 8.0
    per_transfer_latency: float = 0.0

    def offload_cycles(self, n_bytes: int, n_transfers: int = 1) -> float:
        """Cycles to move ``n_bytes`` over the bus."""
        if n_bytes <= 0:
            return 0.0
        return n_bytes / self.bytes_per_cycle + self.per_transfer_latency * n_transfers


def breakeven_speedup(
    t_sw: float, t_comm_input: float, t_comm_output: float
) -> float:
    """Equation 1.  Returns ``inf`` when offload cost swamps the software
    time (no computational speedup can ever break even)."""
    t_comm = t_comm_input + t_comm_output
    if t_sw <= 0 or t_sw <= t_comm:
        return math.inf
    return t_sw / (t_sw - t_comm)


#: Cycle model used for the paper's :math:`t_{sw}` in the breakeven metric.
#: The miniature workloads touch most data exactly once, so cold cache
#: misses dominate the full Callgrind estimate and would mask the
#: communication-versus-compute signal Equation 1 ranks by; the partitioning
#: study therefore weighs only the instruction and branch components.  The
#: coverage figure (Fig. 7) still uses the full estimate for time fractions.
PARTITION_CYCLE_MODEL = CycleModel(per_l1_miss=0.0, per_ll_miss=0.0)


@dataclass(frozen=True)
class PartitionPolicy:
    """Structural rules and models of the trimming heuristic."""

    bus: BusModel = field(default_factory=BusModel)
    #: Function names never merged into a candidate (entry point by default).
    never_merge: frozenset = frozenset({"main"})
    #: Sub-trees containing syscall pseudo-nodes stay interior.
    forbid_syscalls: bool = True
    #: Model turning Callgrind event counts into the t_sw of Equation 1.
    cycle_model: CycleModel = PARTITION_CYCLE_MODEL


@dataclass(frozen=True)
class Candidate:
    """A leaf of the trimmed calltree: a tentative acceleration target."""

    node: ContextNode
    costs: InclusiveCosts
    breakeven: float

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def path(self) -> Tuple[str, ...]:
        return self.node.path


@dataclass
class TrimmedTree:
    """Result of trimming: candidate leaves plus interior structure."""

    candidates: List[Candidate]
    interior: List[ContextNode]
    total_cycles: float

    def sorted_candidates(self, *, worst_first: bool = False) -> List[Candidate]:
        """Candidates by increasing breakeven (Table II) or decreasing
        (Table III)."""
        return sorted(
            self.candidates, key=lambda c: c.breakeven, reverse=worst_first
        )

    def coverage_cycles(self) -> float:
        """Estimated cycles spent inside candidate leaves."""
        return sum(c.costs.est_cycles for c in self.candidates)

    @property
    def coverage(self) -> float:
        """Fraction of the application's time covered by candidates (Fig 7)."""
        if self.total_cycles <= 0:
            return 0.0
        return min(1.0, self.coverage_cycles() / self.total_cycles)


def _candidate_for(
    sigil: SigilProfile,
    callgrind: Optional[CallgrindProfile],
    node: ContextNode,
    policy: PartitionPolicy,
) -> Candidate:
    costs = compute_inclusive(sigil, callgrind, node)
    t_in = policy.bus.offload_cycles(costs.unique_input_bytes, costs.calls)
    t_out = policy.bus.offload_cycles(costs.unique_output_bytes, costs.calls)
    t_sw = policy.cycle_model.estimate(
        costs.instructions, costs.branch_misses, costs.l1_misses, costs.ll_misses
    )
    s_be = breakeven_speedup(t_sw, t_in, t_out)
    return Candidate(node, costs, s_be)


def trim_calltree(
    sigil: SigilProfile,
    callgrind: Optional[CallgrindProfile],
    policy: Optional[PartitionPolicy] = None,
) -> TrimmedTree:
    """Trim the control data flow graph into accelerator candidates.

    Recursive rule at each node: compute the breakeven of the fully merged
    sub-tree; resolve children recursively; merge when allowed and when the
    merged breakeven is no worse than the best breakeven splitting would
    yield (ties merge, maximising coverage per Amdahl's-law goal).
    """
    policy = policy if policy is not None else PartitionPolicy()

    def resolve(
        root: ContextNode,
    ) -> Tuple[float, List[Candidate], List[ContextNode]]:
        """Bottom-up resolution of one sub-tree.

        Returns ``(best_breakeven, candidates, interior)`` for the best
        trimming of the sub-tree rooted at ``root``.  Iterative post-order
        with an explicit stack: real call chains routinely exceed Python's
        recursion limit (~1000 frames), and the trimming rule only needs
        each node's children resolved first.
        """
        # node id -> resolved (score, candidates, interior) of its sub-tree
        done: Dict[int, Tuple[float, List[Candidate], List[ContextNode]]] = {}
        # node id -> whether the sub-tree contains a syscall pseudo-node;
        # accumulated bottom-up so the check is O(tree) overall instead of
        # one full sub-tree walk per node.
        has_sys: Dict[int, bool] = {}
        stack: List[Tuple[ContextNode, bool]] = [(root, False)]
        while stack:
            node, children_resolved = stack.pop()
            if node.name.startswith(SYSCALL_PREFIX):
                done[node.id] = (math.inf, [], [])
                continue
            children = [
                c for c in node.children.values()
                if not c.name.startswith(SYSCALL_PREFIX)
            ]
            if not children_resolved and children:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(children))
                continue
            child_flags = [has_sys.pop(child.id) for child in children]
            has_sys[node.id] = any(child_flags) or any(
                c.name.startswith(SYSCALL_PREFIX) for c in node.children.values()
            )
            mergeable = node.name not in policy.never_merge and not (
                policy.forbid_syscalls and has_sys[node.id]
            )
            merged = (
                _candidate_for(sigil, callgrind, node, policy)
                if mergeable
                else None
            )
            if not children:
                if merged is not None:
                    done[node.id] = (merged.breakeven, [merged], [])
                else:
                    done[node.id] = (math.inf, [], [node])
                continue
            resolved = [done.pop(child.id) for child in children]
            best_split = min(
                (score for score, _, _ in resolved), default=math.inf
            )
            if merged is not None and merged.breakeven <= best_split:
                done[node.id] = (merged.breakeven, [merged], [])
            else:
                done[node.id] = (
                    best_split,
                    [c for _, cands, _ in resolved for c in cands],
                    [node] + [n for _, _, inter in resolved for n in inter],
                )
        return done[root.id]

    total = callgrind.total_cycles() if callgrind is not None else 0.0
    candidates: List[Candidate] = []
    interior: List[ContextNode] = [sigil.tree.root]
    for top in sigil.tree.root.children.values():
        _, cands, inter = resolve(top)
        candidates.extend(cands)
        interior.extend(inter)
    return TrimmedTree(candidates, interior, total)
