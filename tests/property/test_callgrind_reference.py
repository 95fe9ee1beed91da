"""Differential property test: batched Callgrind collector versus scalar.

The batched transport plus the collector's run-length kernel, line
expansion, deduped per-level LRU walks, and fused branch predictor must
reproduce the scalar path's profile exactly -- same per-context costs, same
cache miss counts, same mispredictions -- for any trace, including accesses
that straddle cache lines and zero-byte accesses.  Hypothesis drives random
interleavings; every batch size from degenerate (1) to never-full (4096)
must agree.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.callgrind import CacheConfig, CallgrindCollector
from repro.trace.batch import BatchingTransport
from repro.trace.events import OpKind

BATCH_SIZES = (1, 3, 64, 4096)

_FN_NAMES = ("f", "g", "h")

# Tiny caches so random traces actually evict: D1 = 2 sets x 2 ways,
# LL = 4 sets x 2 ways, 64-byte lines.
_SMALL_D1 = CacheConfig(size=256, assoc=2, line_size=64)
_SMALL_LL = CacheConfig(size=512, assoc=2, line_size=64)

_COLLECTORS = {
    "cache+branch": lambda: CallgrindCollector(d1=_SMALL_D1, ll=_SMALL_LL),
    "cache-only": lambda: CallgrindCollector(
        d1=_SMALL_D1, ll=_SMALL_LL, simulate_branch=False
    ),
    "branch-only": lambda: CallgrindCollector(simulate_cache=False),
    "counters-only": lambda: CallgrindCollector(
        simulate_cache=False, simulate_branch=False
    ),
}


@st.composite
def callgrind_traces(draw):
    """Traces with line-straddling accesses, ops, branches, syscalls.

    Addresses sit around line boundaries and sizes run up to two lines, so
    batches exercise the ragged line expansion; repeated branch sites walk
    the bimodal counters through their whole state space.
    """
    n_steps = draw(st.integers(min_value=1, max_value=60))
    steps = []
    depth = 0
    for _ in range(n_steps):
        kinds = ["read", "write", "enter", "op", "branch", "syscall"]
        if depth > 0:
            kinds.append("exit")
        kind = draw(st.sampled_from(kinds))
        if kind == "enter":
            steps.append(("enter", draw(st.sampled_from(_FN_NAMES))))
            depth += 1
        elif kind == "exit":
            steps.append(("exit",))
            depth -= 1
        elif kind == "op":
            steps.append((
                "op",
                draw(st.sampled_from([OpKind.INT, OpKind.FLOAT])),
                draw(st.integers(min_value=1, max_value=4)),
            ))
        elif kind == "branch":
            steps.append(("branch", draw(st.integers(min_value=0, max_value=3)),
                          draw(st.booleans())))
        elif kind == "syscall":
            steps.append(("syscall", draw(st.integers(min_value=0, max_value=8))))
        else:
            addr = draw(st.integers(min_value=0, max_value=1024))
            size = draw(st.integers(min_value=0, max_value=130))
            steps.append((kind, addr, size))
    steps.extend([("exit",)] * depth)
    return steps


def _drive(steps, observer) -> None:
    observer.on_run_begin()
    exits: List[str] = []
    for step in steps:
        if step[0] == "enter":
            observer.on_fn_enter(step[1])
            exits.append(step[1])
        elif step[0] == "exit":
            observer.on_fn_exit(exits.pop())
        elif step[0] == "op":
            observer.on_op(step[1], step[2])
        elif step[0] == "branch":
            observer.on_branch(step[1], step[2])
        elif step[0] == "syscall":
            observer.on_syscall_enter("s", step[1])
            observer.on_syscall_exit("s", step[1])
        elif step[0] == "read":
            observer.on_mem_read(step[1], step[2])
        else:
            observer.on_mem_write(step[1], step[2])
    observer.on_run_end()


def _snapshot(collector: CallgrindCollector):
    """Everything observable about a run, as comparable plain data."""
    costs = {
        collector.tree.node(ctx_id).path: (
            c.instructions, c.iops, c.flops,
            c.reads, c.read_bytes, c.writes, c.write_bytes,
            c.l1_misses, c.ll_misses,
            c.branches, c.branch_misses, c.syscalls,
        )
        for ctx_id, c in collector.profile.self_costs.items()
    }
    caches = None
    if collector.caches is not None:
        caches = (
            collector.caches.d1.accesses, collector.caches.d1.misses,
            collector.caches.ll.accesses, collector.caches.ll.misses,
        )
    predictor = None
    if collector.predictor is not None:
        predictor = (
            collector.predictor.branches,
            collector.predictor.mispredicts,
            dict(collector.predictor._counters),
        )
    return costs, caches, predictor, collector.profile.total_cycles()


def _run(steps, make_collector, batch_size: int):
    collector = make_collector()
    observer = (
        BatchingTransport(collector, batch_size, scalar_cutoff=0)
        if batch_size
        else collector
    )
    _drive(steps, observer)
    return _snapshot(collector)


@pytest.mark.parametrize("variant", sorted(_COLLECTORS))
@given(steps=callgrind_traces())
@settings(max_examples=40, deadline=None)
def test_batched_collector_identical_to_scalar(variant, steps):
    """Every batch size reproduces the scalar profile, in every variant."""
    make = _COLLECTORS[variant]
    scalar = _run(steps, make, 0)
    for batch_size in BATCH_SIZES:
        assert _run(steps, make, batch_size) == scalar, (
            f"batch_size={batch_size} diverged from scalar for {variant}"
        )


@given(steps=callgrind_traces())
@settings(max_examples=20, deadline=None)
def test_batched_collector_default_caches_identical_to_scalar(steps):
    """The default (32 KiB D1 / 8 MiB LL) geometry agrees too -- the
    deduped recency-ordered LRU walks must match scalar when sets never fill."""
    make = CallgrindCollector
    scalar = _run(steps, make, 0)
    for batch_size in (3, 4096):
        assert _run(steps, make, batch_size) == scalar


@given(steps=callgrind_traces())
@settings(max_examples=20, deadline=None)
def test_default_cutoff_replay_identical(steps):
    """With the default scalar cutoff, short flushes replay as scalar
    calls and long ones take the kernels; the profile must not care."""
    scalar = _run(steps, CallgrindCollector, 0)
    collector = CallgrindCollector()
    _drive(steps, BatchingTransport(collector, 64))
    assert _snapshot(collector) == scalar
