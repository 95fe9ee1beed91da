"""Zero-byte accesses must touch no shadow state.

Regression tests for a line-granularity unit-count bug: with
``n_units = ((addr + size - 1) >> shift) - (addr >> shift) + 1`` a size-0
access at an unaligned address yielded ``n_units == 1``, fabricating
communication (and line re-use) out of an access that moved no data.  A
zero-byte access still retires an instruction -- the clock advances, the
function's access count increments -- but the shadow memory must not change.
"""

from __future__ import annotations

import pytest

from repro.core import SigilConfig, SigilProfiler
from repro.core.linegrain import LineReuseProfiler
from repro.io.profilefile import dumps_profile
from repro.trace.batch import BatchingTransport


def _run(config, steps, batch_size=0):
    profiler = SigilProfiler(config)
    # scalar_cutoff=0: the zero-size accesses must go through the
    # transport's batch delivery and strict flushes, however short the
    # stream is.
    obs = (
        BatchingTransport(profiler, batch_size, scalar_cutoff=0)
        if batch_size
        else profiler
    )
    obs.on_run_begin()
    obs.on_fn_enter("main")
    for kind, addr, size in steps:
        if kind == "r":
            obs.on_mem_read(addr, size)
        else:
            obs.on_mem_write(addr, size)
    obs.on_fn_exit("main")
    obs.on_run_end()
    return profiler.profile()


@pytest.mark.parametrize("line_size", [1, 4, 64])
@pytest.mark.parametrize("batch_size", [0, 3, 4096])
def test_zero_byte_access_creates_no_edges(line_size, batch_size):
    """Size-0 reads/writes at unaligned addresses produce no communication."""
    profile = _run(
        SigilConfig(line_size=line_size),
        [("w", 5, 0), ("r", 5, 0), ("r", 7, 0), ("w", 1023, 0)],
        batch_size,
    )
    assert len(profile.comm) == 0


@pytest.mark.parametrize("line_size", [1, 4])
@pytest.mark.parametrize("batch_size", [0, 3])
def test_zero_byte_write_does_not_clobber_writer(line_size, batch_size):
    """A size-0 write between a real write and read must not retarget the
    edge (it used to overwrite the unit's writer at line granularity)."""
    config = SigilConfig(line_size=line_size)
    with_zero = _run(
        config,
        [("w", 4, 4), ("w", 6, 0), ("r", 4, 4)],
        batch_size,
    )
    without = _run(config, [("w", 4, 4), ("r", 4, 4)], batch_size)
    assert {k: (e.unique_bytes, e.nonunique_bytes)
            for k, e in with_zero.comm.items()} == \
           {k: (e.unique_bytes, e.nonunique_bytes)
            for k, e in without.comm.items()}


@pytest.mark.parametrize("batch_size", [0, 3])
def test_zero_byte_access_still_counts_and_ticks(batch_size):
    """The instruction retires: clocks and access counts are unaffected by
    the fix, only the shadow state is."""
    profile = _run(SigilConfig(), [("w", 0, 0), ("r", 0, 0)], batch_size)
    assert profile.total_time == 2
    (ctx,) = [n for n in profile.contexts() if n.name == "main"]
    fn = profile.fn_comm(ctx.id)
    assert fn.writes == 1 and fn.reads == 1
    assert fn.write_bytes == 0 and fn.read_bytes == 0


@pytest.mark.parametrize("batch_size", [0, 4])
def test_zero_byte_access_in_reuse_mode(batch_size):
    """Re-use mode: a zero-byte access opens no re-use window."""
    profile = _run(
        SigilConfig(reuse_mode=True),
        [("w", 8, 0), ("r", 8, 0), ("w", 16, 2), ("r", 16, 2)],
        batch_size,
    )
    assert profile.reuse is not None
    # Only the two real bytes ever lived.
    assert sum(profile.reuse.byte_breakdown().values()) == 2


@pytest.mark.parametrize("batch_size", [0, 3, 4096])
def test_line_reuse_profiler_ignores_zero_byte_touches(batch_size):
    profiler = LineReuseProfiler(line_size=64)
    obs = (
        BatchingTransport(profiler, batch_size, scalar_cutoff=0)
        if batch_size
        else profiler
    )
    obs.on_run_begin()
    obs.on_mem_write(100, 0)
    obs.on_mem_read(70, 0)
    obs.on_mem_write(10, 4)
    obs.on_mem_read(10, 4)
    obs.on_run_end()
    assert profiler.n_lines == 1
    (rec,) = profiler.records()
    assert rec.line_no == 0
    assert rec.accesses == 2
    # Zero-byte accesses still tick the clock (they retire an instruction).
    assert profiler.time == 4
    assert rec.first_access == 3 and rec.last_access == 4


@pytest.mark.parametrize("batch_size", [0, 3])
def test_scalar_and_batched_agree_on_zero_sizes(batch_size):
    """Belt and braces: the full profile text matches across transports for
    a mixed stream of zero and non-zero accesses."""
    steps = [("w", 5, 0), ("w", 4, 4), ("r", 6, 0), ("r", 4, 4),
             ("w", 63, 0), ("r", 63, 2), ("w", 63, 2), ("r", 62, 0)]
    for config in (SigilConfig(), SigilConfig(line_size=4),
                   SigilConfig(reuse_mode=True)):
        assert dumps_profile(_run(config, steps, batch_size)) == \
               dumps_profile(_run(config, steps, 0))
