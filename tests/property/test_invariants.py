"""Property tests for cache, critical path, reuse, CCT and VM invariants."""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.callgrind import Cache, CacheConfig, CacheHierarchy
from repro.analysis import analyze_critical_path
from repro.common.cct import ContextTree
from repro.core.reuse import bucketise_counts
from repro.core.segments import EventLog


# -- cache ------------------------------------------------------------------


class _RefLRU:
    """Reference LRU cache via OrderedDict."""

    def __init__(self, assoc: int, n_sets: int):
        self.assoc = assoc
        self.n_sets = n_sets
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        tag = line // self.n_sets
        if tag in s:
            s.move_to_end(tag)
            return False
        s[tag] = True
        if len(s) > self.assoc:
            s.popitem(last=False)
        return True


@given(
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300),
    st.sampled_from([(1, 2), (2, 2), (4, 4), (8, 1)]),
)
@settings(max_examples=150, deadline=None)
def test_cache_matches_reference_lru(lines, geometry):
    assoc, n_sets = geometry
    cache = Cache(CacheConfig(size=assoc * n_sets * 64, assoc=assoc, line_size=64))
    ref = _RefLRU(assoc, n_sets)
    for line in lines:
        assert cache.access_line(line) == ref.access(line)


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
@settings(max_examples=50, deadline=None)
def test_cache_misses_bounded_by_accesses(lines):
    cache = Cache(CacheConfig(size=1024, assoc=2, line_size=64))
    for line in lines:
        cache.access_line(line)
    assert 0 <= cache.misses <= cache.accesses == len(lines)


class _RefHierarchy:
    """Reference D1+LL hierarchy: LL sees exactly D1's misses."""

    def __init__(self, d1: Tuple[int, int], ll: Tuple[int, int]):
        self.levels = (_RefLRU(*d1), _RefLRU(*ll))
        self.accesses = [0, 0]
        self.misses = [0, 0]

    def access_line(self, line: int) -> Tuple[int, int]:
        misses = [0, 0]
        for level, ref in enumerate(self.levels):
            self.accesses[level] += 1
            if not ref.access(line):
                break
            self.misses[level] += 1
            misses[level] = 1
        return misses[0], misses[1]


_LINE = 16
_GEOMETRIES = [(1, 1), (1, 2), (2, 2), (4, 1), (2, 4)]


@st.composite
def _straddling_accesses(draw):
    """(addr, size) accesses over a few lines, with MRU repeats."""
    base = st.tuples(
        st.integers(min_value=0, max_value=12 * _LINE),
        st.integers(min_value=0, max_value=2 * _LINE + 1),
        st.integers(min_value=1, max_value=4),
    )
    accesses = []
    for addr, size, repeats in draw(st.lists(base, min_size=1, max_size=60)):
        accesses.extend([(addr, size)] * repeats)
    return accesses


def _lines_touched(addr: int, size: int) -> List[int]:
    return list(range(addr // _LINE, (addr + max(size, 1) - 1) // _LINE + 1))


def _hierarchy(d1: Tuple[int, int], ll: Tuple[int, int]) -> CacheHierarchy:
    def config(assoc: int, n_sets: int) -> CacheConfig:
        return CacheConfig(size=assoc * n_sets * _LINE, assoc=assoc, line_size=_LINE)

    return CacheHierarchy(config(*d1), config(*ll))


def _level_counts(h: CacheHierarchy):
    return [h.d1.accesses, h.ll.accesses], [h.d1.misses, h.ll.misses]


@given(
    _straddling_accesses(),
    st.sampled_from(_GEOMETRIES),
    st.sampled_from(_GEOMETRIES),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=150, deadline=None)
def test_hierarchy_matches_reference_lru(accesses, d1, ll, chunk):
    """D1 then LL on each D1 miss, via both the scalar and the batch walk."""
    ref = _RefHierarchy(d1, ll)
    scalar = _hierarchy(d1, ll)
    for addr, size in accesses:
        expected = [0, 0]
        for line in _lines_touched(addr, size):
            l1, l2 = ref.access_line(line)
            expected[0] += l1
            expected[1] += l2
        result = scalar.access(addr, size)
        assert [result.l1_misses, result.ll_misses] == expected
    assert _level_counts(scalar) == (ref.accesses, ref.misses)

    batched = _hierarchy(d1, ll)
    totals = [0, 0]
    for i in range(0, len(accesses), chunk):
        lines = [
            line
            for addr, size in accesses[i : i + chunk]
            for line in _lines_touched(addr, size)
        ]
        l1, l2 = batched.access_lines(np.array(lines, dtype=np.int64))
        totals[0] += l1
        totals[1] += l2
    assert totals == ref.misses
    assert _level_counts(batched) == (ref.accesses, ref.misses)


# -- critical path -----------------------------------------------------------


@st.composite
def event_logs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    log = EventLog()
    for i in range(n):
        seg = log.new_segment(ctx_id=i % 4, call_id=i, time=i)
        seg.ops = draw(st.integers(min_value=0, max_value=50))
    n_edges = draw(st.integers(min_value=0, max_value=40))
    for _ in range(n_edges):
        if n < 2:
            break
        src = draw(st.integers(min_value=0, max_value=n - 2))
        dst = draw(st.integers(min_value=src + 1, max_value=n - 1))
        kind = draw(st.sampled_from(["order", "call", "data"]))
        if kind == "order":
            log.add_order_edge(src, dst)
        elif kind == "call":
            log.add_call_edge(src, dst)
        else:
            log.add_data_bytes(src, dst, draw(st.integers(min_value=1, max_value=64)))
    return log


@given(event_logs())
@settings(max_examples=150, deadline=None)
def test_critical_path_bounded(log):
    result = analyze_critical_path(log.to_arrays())
    assert 0 <= result.critical_length <= result.serial_length
    assert result.max_parallelism >= 1.0 or result.serial_length == 0
    # The reported path is a chain with nonincreasing ids backwards.
    ids = [seg.seg_id for seg in result.path]
    assert ids == sorted(ids)
    # Path self-costs sum to the critical length.
    assert sum(seg.ops for seg in result.path) == result.critical_length


@given(event_logs(), st.data())
@settings(max_examples=80, deadline=None)
def test_adding_edge_never_shortens_critical_path(log, data):
    before = analyze_critical_path(log.to_arrays()).critical_length
    n = len(log.segments)
    if n >= 2:
        src = data.draw(st.integers(min_value=0, max_value=n - 2))
        dst = data.draw(st.integers(min_value=src + 1, max_value=n - 1))
        log.add_order_edge(src, dst)
    after = analyze_critical_path(log.to_arrays()).critical_length
    assert after >= before


# -- reuse buckets -------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=100_000), max_size=500).map(
        lambda xs: np.array(xs, dtype=np.int64)
    )
)
@settings(max_examples=100, deadline=None)
def test_buckets_partition_counts(counts):
    buckets = bucketise_counts(counts)
    assert buckets.sum() == len(counts)
    assert (buckets >= 0).all()


# -- context tree -----------------------------------------------------------------


@given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=5), max_size=30))
@settings(max_examples=100, deadline=None)
def test_cct_paths_roundtrip(paths):
    tree = ContextTree()
    for path in paths:
        node = tree.root
        for name in path:
            node = tree.child(node, name)
        assert node.path == tuple(path)
        assert tree.find(tuple(path)) is node
    # ids are dense
    assert sorted(n.id for n in tree.nodes) == list(range(len(tree)))


# -- VM: random straight-line programs -----------------------------------------------


@st.composite
def straight_line_programs(draw):
    from repro.vm import ProgramBuilder

    pb = ProgramBuilder()
    f = pb.function("main")
    regs = [f.const(draw(st.integers(min_value=-100, max_value=100)))]
    base = f.const(0x1000)
    n = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n):
        choice = draw(st.integers(min_value=0, max_value=3))
        a = draw(st.sampled_from(regs))
        b = draw(st.sampled_from(regs))
        if choice == 0:
            regs.append(f.alu(draw(st.sampled_from(["add", "sub", "mul", "min", "max"])), a, b))
        elif choice == 1:
            regs.append(f.alui("add", a, draw(st.integers(-10, 10))))
        elif choice == 2:
            f.store(a, base, offset=draw(st.integers(0, 64)) * 8, size=8)
        else:
            regs.append(f.load(base, offset=draw(st.integers(0, 64)) * 8, size=8))
    f.ret(regs[-1])
    return pb.build()


@given(straight_line_programs())
@settings(max_examples=100, deadline=None)
def test_random_programs_execute_and_balance(program):
    from repro.trace import RecordingObserver
    from repro.trace.events import FnEnter, FnExit
    from repro.vm import FlatMemory, Machine

    obs = RecordingObserver()
    machine = Machine(memory=FlatMemory(strict=False))
    result = machine.run(program, obs)
    assert result.instructions > 0
    depth = 0
    for ev in obs.events:
        if isinstance(ev, FnEnter):
            depth += 1
        elif isinstance(ev, FnExit):
            depth -= 1
        assert depth >= 0
    assert depth == 0


# -- VM: random call graphs ---------------------------------------------------


@st.composite
def call_graph_programs(draw):
    """Random acyclic call graphs: function i may call only functions > i."""
    from repro.vm import ProgramBuilder

    n_funcs = draw(st.integers(min_value=1, max_value=6))
    pb = ProgramBuilder()
    names = ["main"] + [f"fn{i}" for i in range(1, n_funcs)]
    arities = {
        name: (0 if i == 0 else draw(st.integers(min_value=0, max_value=2)))
        for i, name in enumerate(names)
    }
    builders = {name: pb.function(name, arities[name]) for name in names}
    for i, name in enumerate(names):
        f = builders[name]
        regs = [f.const(draw(st.integers(-5, 5)))]
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            regs.append(f.alui("add", draw(st.sampled_from(regs)),
                               draw(st.integers(-3, 3))))
        # Calls to later functions only (acyclic by construction).
        callees = names[i + 1:]
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if not callees:
                break
            callee = draw(st.sampled_from(callees))
            args = [draw(st.sampled_from(regs)) for _ in range(arities[callee])]
            regs.append(f.call_value(callee, args=args))
        f.ret(draw(st.sampled_from(regs)))
    return pb.build()


@given(call_graph_programs())
@settings(max_examples=80, deadline=None)
def test_random_call_graphs_profile_cleanly(program):
    from repro.core import SigilConfig, SigilProfiler
    from repro.vm import Machine

    profiler = SigilProfiler(SigilConfig(event_mode=True))
    Machine().run(program, profiler)
    prof = profiler.profile()
    # Calls recorded in the tree match the event log's segments per call.
    total_calls = sum(n.calls for n in prof.contexts())
    distinct_calls = set(prof.events.segs["call"].tolist()) - {0}
    assert len(distinct_calls) == total_calls
    # Critical path is well-formed on any such program.
    from repro.analysis import analyze_critical_path

    result = analyze_critical_path(prof.events)
    assert 0 <= result.critical_length <= result.serial_length


# -- assembler round-trip on generated programs --------------------------------


@given(straight_line_programs())
@settings(max_examples=60, deadline=None)
def test_asm_roundtrip_straight_line(program):
    from repro.vm.asm import assemble, disassemble

    again = assemble(disassemble(program))
    for name, func in program.functions.items():
        assert again.functions[name].code == func.code


@given(call_graph_programs())
@settings(max_examples=60, deadline=None)
def test_asm_roundtrip_call_graphs(program):
    from repro.vm.asm import assemble, disassemble

    again = assemble(disassemble(program))
    for name, func in program.functions.items():
        assert again.functions[name].code == func.code
        assert again.functions[name].n_params == func.n_params
