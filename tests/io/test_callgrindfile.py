"""Callgrind-profile persistence tests."""

from __future__ import annotations

import pytest

from repro.callgrind import CallgrindCollector
from repro.io import (
    dump_callgrind,
    dumps_callgrind,
    export_callgrind,
    load_callgrind,
    loads_callgrind,
)
from repro.trace.events import OpKind


def _syscall_then_call():
    """A profile whose tree holds a syscall node (``sys:read``, tree id 2)
    and then a function ``f`` (tree id 3)."""
    cg = CallgrindCollector(simulate_cache=False)
    cg.on_fn_enter("main")
    cg.on_syscall_enter("read", 8)
    cg.on_syscall_exit("read", 0)
    cg.on_fn_enter("f")
    cg.on_op(OpKind.INT, 2)
    cg.on_fn_exit("f")
    cg.on_fn_exit("main")
    return cg.profile


class TestDenseIds:
    def test_syscall_node_skipped_and_ids_dense_past_it(self):
        profile = _syscall_then_call()
        assert [n.name for n in profile.tree.nodes] == [
            "<root>", "main", "sys:read", "f"
        ]
        lines = dumps_callgrind(profile).splitlines()[2:]
        assert lines == [
            "ctx 1 0 1 main",
            "ctx 2 1 1 f",
            "cost 0 0 0 0 0 0 0 0 0 0 0 0 0",
            "cost 1 0 0 0 0 0 0 0 0 0 0 0 1",
            "cost 2 2 2 0 0 0 0 0 0 0 0 0 0",
        ]

    def test_round_trips_through_loads(self):
        text = dumps_callgrind(_syscall_then_call())
        loaded = loads_callgrind(text)
        assert dumps_callgrind(loaded) == text
        assert loaded.tree.find(("main", "sys:read")) is None
        assert loaded.costs_of(loaded.tree.find(("main", "f")).id).iops == 2

    def test_export_skips_syscall_node(self, tmp_path):
        path = tmp_path / "cg.out"
        export_callgrind(_syscall_then_call(), path)
        text = path.read_text()
        assert "fn=f" in text and "cfn=f" in text
        assert "sys:read" not in text

    def test_loads_rejects_a_function_with_the_syscall_prefix(self):
        text = dumps_callgrind(_syscall_then_call()).replace(" f\n", " sys:f\n")
        with pytest.raises(
            ValueError, match=r"'sys:f' takes the system-call .* \(line 4: 'ctx 2 1 1 sys:f'\)"
        ):
            loads_callgrind(text)


class TestRoundTrip:
    def test_text_stable(self, toy_profiles):
        _, cg = toy_profiles
        text = dumps_callgrind(cg)
        assert dumps_callgrind(loads_callgrind(text)) == text

    def test_costs_preserved(self, toy_profiles):
        _, cg = toy_profiles
        loaded = loads_callgrind(dumps_callgrind(cg))
        for node in cg.tree.nodes:
            if node.parent is None:
                continue
            other = loaded.tree.find(node.path)
            assert other is not None
            a = cg.costs_of(node.id)
            b = loaded.costs_of(other.id)
            assert (a.instructions, a.iops, a.flops, a.l1_misses) == (
                b.instructions, b.iops, b.flops, b.l1_misses
            )

    def test_cycle_estimates_survive(self, toy_profiles):
        _, cg = toy_profiles
        loaded = loads_callgrind(dumps_callgrind(cg))
        assert loaded.total_cycles() == pytest.approx(cg.total_cycles())

    def test_model_preserved(self, toy_profiles):
        _, cg = toy_profiles
        loaded = loads_callgrind(dumps_callgrind(cg))
        assert loaded.cycle_model == cg.cycle_model

    def test_file_roundtrip(self, toy_profiles, tmp_path):
        _, cg = toy_profiles
        path = tmp_path / "toy.cg"
        dump_callgrind(cg, path)
        assert load_callgrind(path).total_cycles() == pytest.approx(cg.total_cycles())

    def test_offline_partitioning_matches_live(self, blackscholes_profiles):
        """The full partitioning study must be reproducible from files."""
        from repro.analysis import trim_calltree
        from repro.io import dumps_profile, loads_profile

        sigil, cg = blackscholes_profiles
        sigil2 = loads_profile(dumps_profile(sigil))
        cg2 = loads_callgrind(dumps_callgrind(cg))
        live = trim_calltree(sigil, cg)
        offline = trim_calltree(sigil2, cg2)
        live_rank = [(c.name, round(c.breakeven, 9)) for c in live.sorted_candidates()]
        off_rank = [(c.name, round(c.breakeven, 9)) for c in offline.sorted_candidates()]
        assert live_rank == off_rank
        assert offline.coverage == pytest.approx(live.coverage)


class TestValidation:
    def test_ir_must_be_ops_accesses_and_branches(self):
        text = dumps_callgrind(_syscall_then_call())
        with pytest.raises(ValueError, match=r"ir 3 .*\(2\) \(line 7: 'cost 2 3 2"):
            loads_callgrind(text.replace("cost 2 2 2", "cost 2 3 2"))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            loads_callgrind("nope\n")

    def test_unknown_line(self):
        with pytest.raises(ValueError):
            loads_callgrind("# callgrind-equiv 1\nwat 1 2\n")
