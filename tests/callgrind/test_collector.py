"""Callgrind-equivalent collector tests: costs, contexts, cycles."""

from __future__ import annotations

import pytest

from repro.callgrind import (
    BimodalPredictor,
    CallgrindCollector,
    CallgrindCosts,
    CycleModel,
)
from repro.trace.events import OpKind


class TestPredictor:
    def test_warms_up_to_taken(self):
        p = BimodalPredictor()
        assert p.record(0, True) is True    # starts weakly not-taken
        assert p.record(0, True) is False   # now predicts taken
        assert p.record(0, True) is False

    def test_saturation(self):
        p = BimodalPredictor()
        for _ in range(10):
            p.record(0, True)
        assert p.record(0, False) is True   # one surprise
        assert p.record(0, True) is False   # still biased taken

    def test_sites_independent(self):
        p = BimodalPredictor()
        for _ in range(4):
            p.record(0, True)
        assert p.record(1, True) is True  # fresh site mispredicts

    def test_miss_rate(self):
        p = BimodalPredictor()
        p.record(0, True)
        p.record(0, True)
        assert p.miss_rate == pytest.approx(0.5)


class TestCollector:
    def run_simple(self):
        cg = CallgrindCollector()
        cg.on_run_begin()
        cg.on_fn_enter("main")
        cg.on_op(OpKind.INT, 10)
        cg.on_fn_enter("child")
        cg.on_op(OpKind.FLOAT, 4)
        cg.on_mem_read(0x100, 8)
        cg.on_mem_write(0x100, 8)
        cg.on_branch(0, True)
        cg.on_fn_exit("child")
        cg.on_fn_exit("main")
        cg.on_run_end()
        return cg

    def test_self_costs_attributed(self):
        cg = self.run_simple()
        main = cg.tree.find(("main",))
        child = cg.tree.find(("main", "child"))
        mc = cg.profile.costs_of(main.id)
        cc = cg.profile.costs_of(child.id)
        assert mc.iops == 10 and mc.flops == 0
        assert cc.flops == 4
        assert cc.reads == 1 and cc.writes == 1
        assert cc.read_bytes == 8 and cc.write_bytes == 8
        assert cc.branches == 1
        # instructions = ops + mem accesses + branches
        assert cc.instructions == 4 + 2 + 1

    def test_inclusive_costs_roll_up(self):
        cg = self.run_simple()
        main = cg.tree.find(("main",))
        inc = cg.profile.inclusive_costs(main)
        assert inc.iops == 10
        assert inc.flops == 4
        assert inc.instructions == 10 + 4 + 2 + 1

    def test_calls_counted(self):
        cg = CallgrindCollector()
        cg.on_run_begin()
        cg.on_fn_enter("main")
        for _ in range(3):
            cg.on_fn_enter("f")
            cg.on_fn_exit("f")
        cg.on_fn_exit("main")
        cg.on_run_end()
        f = cg.tree.find(("main", "f"))
        assert f.calls == 3

    def test_context_separation(self):
        cg = CallgrindCollector()
        cg.on_run_begin()
        for parent in ("a", "b"):
            cg.on_fn_enter(parent)
            cg.on_fn_enter("util")
            cg.on_op(OpKind.INT, 1)
            cg.on_fn_exit("util")
            cg.on_fn_exit(parent)
        cg.on_run_end()
        assert cg.tree.find(("a", "util")) is not cg.tree.find(("b", "util"))

    def test_cache_misses_attributed(self):
        cg = CallgrindCollector()
        cg.on_run_begin()
        cg.on_fn_enter("f")
        cg.on_mem_read(0, 8)     # cold miss
        cg.on_mem_read(0, 8)     # hit
        cg.on_fn_exit("f")
        cg.on_run_end()
        costs = cg.profile.costs_of(cg.tree.find(("f",)).id)
        assert costs.l1_misses == 1
        assert costs.ll_misses == 1

    def test_cache_simulation_optional(self):
        cg = CallgrindCollector(simulate_cache=False)
        cg.on_run_begin()
        cg.on_fn_enter("f")
        cg.on_mem_read(0, 8)
        cg.on_fn_exit("f")
        cg.on_run_end()
        costs = cg.profile.costs_of(cg.tree.find(("f",)).id)
        assert costs.l1_misses == 0
        assert costs.reads == 1


class TestCycleModel:
    def test_formula(self):
        model = CycleModel()
        assert model.estimate(1000, 10, 20, 5) == 1000 + 100 + 200 + 500

    def test_custom_weights(self):
        model = CycleModel(per_ll_miss=200.0)
        assert model.estimate(0, 0, 0, 1) == 200.0

    def test_estimated_cycles_through_profile(self):
        cg = CallgrindCollector()
        cg.on_run_begin()
        cg.on_fn_enter("f")
        cg.on_op(OpKind.INT, 100)
        cg.on_mem_read(0, 8)  # cold: 1 L1 + 1 LL miss, 1 instruction
        cg.on_fn_exit("f")
        cg.on_run_end()
        node = cg.tree.find(("f",))
        assert cg.profile.estimated_cycles(node) == 101 + 10 + 100
        assert cg.profile.total_cycles() == 211

    def test_costs_add_and_copy(self):
        a = CallgrindCosts(iops=1)
        b = a.copy()
        b.add(CallgrindCosts(flops=3, branches=1))
        # Instructions are derived: operations + accesses + branches.
        assert (b.instructions, b.iops, b.flops) == (5, 1, 3)
        assert a.instructions == 1
        assert b.ops == 4


class TestUnbalancedTrace:
    def test_unbalanced_exit_raises_the_same_error_as_sigil(self):
        cg = CallgrindCollector()
        with pytest.raises(RuntimeError, match=r"unbalanced trace: exit\('main'\) "
                           r"with no function open on thread 0"):
            cg.on_fn_exit("main")

    def test_open_frames_at_run_end_are_not_an_error(self):
        cg = CallgrindCollector()
        cg.on_fn_enter("main")
        cg.on_run_end()
        assert cg.tree.find(("main",)).calls == 1
