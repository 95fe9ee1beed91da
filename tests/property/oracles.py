"""Naive models of the paper's analyses, used only as test oracles.

Each model recomputes a production result the slow, obvious way, from the
same inputs, so that a Hypothesis test can compare the two.

* :func:`naive_critical_path` -- longest paths over the segment DAG (Figure
  3, Figure 13).  It builds a dict-of-lists DAG from the log's segment and
  edge rows and relaxes every segment's longest chain in a depth-first
  post-order, without assuming that segment ids are a topological order.
  Calls are non-blocking (section II-C2), so every edge -- order, call or
  data -- is a pure precedence constraint.  The documented tie-break is
  written out rather than inherited: a segment's best predecessor is the
  *last* maximal one in edge order (order/call table order first, then data
  table order), and the path ends at the *first* segment with the maximal
  inclusive cost.
* :func:`naive_schedule` -- the HLFET list schedule of section IV-C.
  Bottom levels are computed by memoised recursion over successor lists,
  so backward data edges (threaded logs) rank correctly; every step
  rescans the whole ready set for the highest level (lowest id on ties)
  and every core for the earliest free one (lowest index on ties).
* :func:`naive_breakeven` -- Equation 1 for one merged sub-tree (Figure 2).
  Inclusive costs are recursive sums over the calling-context tree, the
  boundary bytes come from a scan of every communication edge, and the
  Callgrind context is found by walking its tree along the call path.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Set, Tuple

from repro.core.segments import EventArrays


class NaivePath(NamedTuple):
    serial_length: int
    critical_length: int
    inclusive: List[int]
    path: List[int]


def naive_critical_path(arrays: EventArrays) -> NaivePath:
    """Longest path over the segment DAG by explicit relaxation."""
    ops = [int(x) for x in arrays.segs["ops"]]
    n = len(ops)
    preds: Dict[int, List[int]] = {v: [] for v in range(n)}
    for table in (arrays.ordercall, arrays.data):
        for src, dst in zip(table["src"].tolist(), table["dst"].tolist()):
            preds[dst].append(src)

    inclusive: Dict[int, int] = {}
    best_pred: Dict[int, int] = {}
    for root in range(n):
        stack = [root]
        while stack:
            v = stack[-1]
            if v in inclusive:
                stack.pop()
                continue
            pending = [p for p in preds[v] if p not in inclusive]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            best, chosen = 0, -1
            for p in preds[v]:
                if inclusive[p] >= best:
                    best, chosen = inclusive[p], p
            inclusive[v] = ops[v] + best
            best_pred[v] = chosen

    if not n:
        return NaivePath(0, 0, [], [])
    top = max(inclusive.values())
    end = min(v for v in range(n) if inclusive[v] == top)
    path = []
    while end != -1:
        path.append(end)
        end = best_pred[end]
    return NaivePath(
        sum(ops), top, [inclusive[v] for v in range(n)], path[::-1]
    )


def assert_matches_oracle(result, expected: NaivePath) -> None:
    assert result.serial_length == expected.serial_length
    assert result.critical_length == expected.critical_length
    assert [int(x) for x in result.inclusive] == expected.inclusive
    assert [s.seg_id for s in result.path] == expected.path


# -- section IV-C list scheduling --------------------------------------------


class NaiveSchedule(NamedTuple):
    makespan: int
    placement: Dict[int, Tuple[int, int]]
    cross_core_bytes: int


def naive_schedule(arrays: EventArrays, n_cores: int) -> NaiveSchedule:
    """HLFET onto ``n_cores`` cores, by rescanning on every step."""
    ops = [int(x) for x in arrays.segs["ops"]]
    n = len(ops)
    edges = [
        (src, dst)
        for table in (arrays.ordercall, arrays.data)
        for src, dst in zip(table["src"].tolist(), table["dst"].tolist())
    ]
    succs: Dict[int, List[int]] = {v: [] for v in range(n)}
    preds: Dict[int, List[int]] = {v: [] for v in range(n)}
    for src, dst in edges:
        succs[src].append(dst)
        preds[dst].append(src)

    levels: Dict[int, int] = {}

    def level(v: int) -> int:
        if v not in levels:
            levels[v] = ops[v] + max((level(s) for s in succs[v]), default=0)
        return levels[v]

    free = [0] * n_cores
    finish: Dict[int, int] = {}
    placement: Dict[int, Tuple[int, int]] = {}
    while len(placement) < n:
        ready = [
            v for v in range(n)
            if v not in placement and all(p in placement for p in preds[v])
        ]
        v = min(ready, key=lambda u: (-level(u), u))
        core = min(range(n_cores), key=lambda c: (free[c], c))
        start = max([free[core]] + [finish[p] for p in preds[v]])
        finish[v] = free[core] = start + ops[v]
        placement[v] = (core, start)
    cross = sum(
        int(nbytes)
        for src, dst, nbytes in arrays.data.tolist()
        if placement[src][0] != placement[dst][0]
    )
    return NaiveSchedule(max(finish.values(), default=0), placement, cross)


# -- Equation 1 --------------------------------------------------------------


def _subtree_sum(node, value) -> int:
    """``value(ctx)`` summed over ``node`` and every descendant."""
    return value(node) + sum(
        _subtree_sum(child, value) for child in node.children.values()
    )


def _subtree_ids(node) -> Set[int]:
    ids = {node.id}
    for child in node.children.values():
        ids |= _subtree_ids(child)
    return ids


class NaiveEq1(NamedTuple):
    iops: int
    flops: int
    unique_input_bytes: int
    unique_output_bytes: int
    calls: int
    instructions: int
    branch_misses: int
    l1_misses: int
    ll_misses: int
    t_sw: float
    breakeven: float


def naive_breakeven(sigil, callgrind, node, bus, cycle_model) -> NaiveEq1:
    """Equation 1 for ``node`` merged with its whole sub-tree.

    ``t_sw`` weighs the sub-tree's Callgrind event counts by
    ``cycle_model``; the offload time moves the unique bytes crossing the
    sub-tree boundary over ``bus``, one transfer per call each way.
    """
    fns = sigil.functions
    iops = _subtree_sum(node, lambda n: fns[n.id].iops if n.id in fns else 0)
    flops = _subtree_sum(
        node, lambda n: fns[n.id].flops if n.id in fns else 0
    )
    inside = _subtree_ids(node)
    inp = out = 0
    for (writer, reader), edge in sigil.comm.items():
        if reader in inside and writer not in inside:
            inp += edge.unique_bytes
        elif writer in inside and reader not in inside:
            out += edge.unique_bytes

    counts = {"instructions": 0, "branch_misses": 0, "l1_misses": 0,
              "ll_misses": 0}
    cg_node = callgrind.tree.root
    for name in node.path:
        cg_node = cg_node.children.get(name) if cg_node else None
    if cg_node is not None:
        costs = callgrind.self_costs
        for field in counts:
            counts[field] = _subtree_sum(
                cg_node,
                lambda n: getattr(costs[n.id], field) if n.id in costs else 0,
            )
    t_sw = (
        cycle_model.per_instruction * counts["instructions"]
        + cycle_model.per_branch_miss * counts["branch_misses"]
        + cycle_model.per_l1_miss * counts["l1_misses"]
        + cycle_model.per_ll_miss * counts["ll_misses"]
    )

    def offload(n_bytes: int) -> float:
        if n_bytes <= 0:
            return 0.0
        return (
            n_bytes / bus.bytes_per_cycle
            + bus.per_transfer_latency * node.calls
        )

    t_comm = offload(inp) + offload(out)
    breakeven = (
        t_sw / (t_sw - t_comm) if t_sw > 0 and t_sw > t_comm else math.inf
    )
    return NaiveEq1(iops, flops, inp, out, node.calls, t_sw=t_sw,
                    breakeven=breakeven, **counts)
