"""Property tests: Equation 1 against the naive sub-tree model in
:mod:`tests.property.oracles`.

For every calling context of a profile, the production inclusive costs
(:func:`~repro.analysis.merge.compute_inclusive`) and breakeven speedup
(the trimming heuristic's per-candidate Equation 1) must equal what
recursive sub-tree sums give.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import BusModel, PartitionPolicy, compute_inclusive
from repro.analysis.partition import PARTITION_CYCLE_MODEL, _candidate_for
from repro.callgrind import CallgrindCollector
from repro.core import SigilConfig, SigilProfiler
from repro.trace import ObserverPipe
from repro.trace.events import OpKind

from tests.property.oracles import naive_breakeven
from tests.property.test_roundtrips import trace_steps

BUSES = [BusModel(), BusModel(bytes_per_cycle=2.0, per_transfer_latency=3.0)]


@st.composite
def branchy_steps(draw):
    """:func:`trace_steps` with branch outcomes spliced in anywhere."""
    steps = list(draw(trace_steps()))
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        at = draw(st.integers(min_value=0, max_value=len(steps)))
        steps.insert(at, (
            "branch",
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.booleans()),
        ))
    return steps


def run_both(steps):
    """Drive Sigil and Callgrind through one pipe, as a profiled run does."""
    sigil = SigilProfiler(SigilConfig())
    cg = CallgrindCollector()
    pipe = ObserverPipe([sigil, cg])
    pipe.on_run_begin()
    stack: List[str] = []
    for step in steps:
        kind = step[0]
        if kind == "enter":
            pipe.on_fn_enter(step[1])
            stack.append(step[1])
        elif kind == "exit":
            pipe.on_fn_exit(stack.pop())
        elif kind == "op":
            pipe.on_op(OpKind.FLOAT if step[1] % 3 == 0 else OpKind.INT,
                       step[1])
        elif kind == "branch":
            pipe.on_branch(step[1], step[2])
        elif kind == "syscall":
            pipe.on_syscall_enter(step[1], step[2])
            pipe.on_syscall_exit(step[1], step[3])
        elif kind == "read":
            pipe.on_mem_read(step[1], step[2])
        else:
            pipe.on_mem_write(step[1], step[2])
    pipe.on_run_end()
    return sigil.profile(), cg.profile


def assert_eq1_matches(sigil, cg, bus) -> None:
    policy = PartitionPolicy(bus=bus)
    for node in sigil.contexts():
        expected = naive_breakeven(sigil, cg, node, bus, PARTITION_CYCLE_MODEL)
        costs = compute_inclusive(sigil, cg, node)
        assert (costs.iops, costs.flops, costs.ops) == (
            expected.iops, expected.flops, expected.iops + expected.flops
        ), node.path
        assert (costs.unique_input_bytes, costs.unique_output_bytes) == (
            expected.unique_input_bytes, expected.unique_output_bytes
        ), node.path
        assert (
            costs.calls, costs.instructions, costs.branch_misses,
            costs.l1_misses, costs.ll_misses,
        ) == (
            expected.calls, expected.instructions, expected.branch_misses,
            expected.l1_misses, expected.ll_misses,
        ), node.path
        breakeven = _candidate_for(sigil, cg, node, policy).breakeven
        assert breakeven == pytest.approx(expected.breakeven, rel=1e-12), (
            node.path
        )


@given(branchy_steps(), st.sampled_from(BUSES))
@settings(max_examples=80, deadline=None)
def test_random_traces_match_naive_eq1(steps, bus):
    sigil, cg = run_both(steps)
    assert_eq1_matches(sigil, cg, bus)


@pytest.mark.parametrize("workload", ["blackscholes", "streamcluster", "dedup"])
def test_simsmall_workloads_match_naive_eq1(workload):
    from repro.workloads import get_workload

    sigil = SigilProfiler(SigilConfig())
    cg = CallgrindCollector()
    get_workload(workload, "simsmall").run(ObserverPipe([sigil, cg]))
    for bus in BUSES:
        assert_eq1_matches(sigil.profile(), cg.profile, bus)
