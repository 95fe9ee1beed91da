"""Differential property test: batched line re-use profiler versus scalar.

The transport's run-length batches go through the profiler's grouped
kernel, whose line expansion and per-line timestamp repeat must reproduce
the scalar path's records exactly -- same lines, access counts, and first
and last touch times -- including for accesses that straddle lines and
zero-byte accesses, which touch no line in this mode.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.linegrain import LineReuseProfiler
from repro.trace.batch import BatchingTransport
from tests.property.test_callgrind_reference import _drive, callgrind_traces


def _records(steps, line_size: int, batch_size: int):
    profiler = LineReuseProfiler(line_size)
    if batch_size:
        _drive(steps, BatchingTransport(profiler, batch_size, scalar_cutoff=0))
    else:
        _drive(steps, profiler)
    return profiler.records(), profiler.time


@pytest.mark.parametrize("line_size", [16, 64])
@given(steps=callgrind_traces())
@settings(max_examples=60, deadline=None)
def test_batched_line_reuse_identical_to_scalar(line_size, steps):
    scalar = _records(steps, line_size, 0)
    for batch_size in (1, 3, 4096):
        assert _records(steps, line_size, batch_size) == scalar, batch_size
