"""Calling-context tree tests."""

from __future__ import annotations

import pytest

from repro.callgrind import CallgrindCollector
from repro.common.cct import ROOT_NAME, ContextTracker, ContextTree
from repro.core import SigilConfig, SigilProfiler
from repro.trace.events import OpKind


class TestContextTree:
    def test_interning(self):
        tree = ContextTree()
        a1 = tree.child(tree.root, "a")
        a2 = tree.child(tree.root, "a")
        assert a1 is a2
        assert len(tree) == 2

    def test_dense_ids(self):
        tree = ContextTree()
        nodes = [tree.child(tree.root, f"f{i}") for i in range(5)]
        assert [n.id for n in nodes] == [1, 2, 3, 4, 5]
        assert all(tree.node(n.id) is n for n in nodes)

    def test_path(self):
        tree = ContextTree()
        a = tree.child(tree.root, "a")
        b = tree.child(a, "b")
        c = tree.child(b, "c")
        assert c.path == ("a", "b", "c")
        assert tree.root.path == ()

    def test_depth(self):
        tree = ContextTree()
        a = tree.child(tree.root, "a")
        b = tree.child(a, "b")
        assert (tree.root.depth, a.depth, b.depth) == (0, 1, 2)

    def test_find(self):
        tree = ContextTree()
        a = tree.child(tree.root, "a")
        b = tree.child(a, "b")
        assert tree.find(("a", "b")) is b
        assert tree.find(("a", "zzz")) is None
        assert tree.find(()) is tree.root

    def test_by_name_across_contexts(self):
        tree = ContextTree()
        a = tree.child(tree.root, "a")
        b = tree.child(tree.root, "b")
        d1 = tree.child(a, "d")
        d2 = tree.child(b, "d")
        assert set(tree.by_name("d")) == {d1, d2}

    def test_walk_covers_subtree(self):
        tree = ContextTree()
        a = tree.child(tree.root, "a")
        b = tree.child(a, "b")
        c = tree.child(a, "c")
        d = tree.child(b, "d")
        assert {n.id for n in a.walk()} == {a.id, b.id, c.id, d.id}

    def test_root_name(self):
        assert ContextTree().root.name == ROOT_NAME


class TestContextTracker:
    def test_calls_ops_and_traffic_go_to_the_current_context(self):
        t = ContextTracker()
        t.on_fn_enter("f")
        t.on_op(OpKind.INT, 3)
        t.on_op(OpKind.FLOAT, 2)
        t.on_mem_read(0, 8)
        t.on_mem_write(0, 4)
        t.on_fn_exit("f")
        f = t.costs[t.tree.find(("f",)).id]
        assert (f.iops, f.flops, f.reads, f.read_bytes, f.writes, f.write_bytes) == (
            3, 2, 1, 8, 1, 4
        )
        assert f.instructions == 3 + 2 + 1 + 1
        assert t.cur is t.costs[0] and t.frame.node is t.tree.root

    def test_batch_counts_equal_scalar_counts(self):
        scalar, batched = ContextTracker(), ContextTracker()
        for addr, size, write in ((0, 8, False), (8, 8, False), (16, 4, True)):
            (scalar.on_mem_write if write else scalar.on_mem_read)(addr, size)
        batched.on_mem_batch_runs([0, 8, 16], [8 << 1, (4 << 1) | 1], [2, 3])
        assert batched.cur == scalar.cur

    def test_call_ids_count_across_threads(self):
        t = ContextTracker()
        t.on_fn_enter("main")
        assert t.frame.call_id == 1
        t.on_thread_switch(1)
        assert t.frame.node is t.tree.root and t.frame.call_id == 2
        t.on_fn_enter("worker")
        assert t.frame.call_id == 3
        t.on_thread_switch(0)
        assert t.frame.node.name == "main"

    def test_syscall_node_is_marked_and_caller_stays_current(self):
        t = ContextTracker()
        t.on_fn_enter("main")
        node = t.on_syscall_enter("read", 16)
        assert (node.name, node.calls) == ("sys:read", 1)
        assert t.frame.node.name == "main"
        assert t.on_syscall_exit("read", 0) is node

    @pytest.mark.parametrize("tool", ["sigil", "callgrind"])
    def test_function_may_not_take_the_syscall_prefix(self, tool):
        """``sys:`` names system calls only, so both tools agree on what a
        system call is: ``main -> sys:x`` writing bytes that ``main -> g``
        reads would otherwise be a function on the Callgrind side and a
        system call on the Sigil side."""
        observer = (
            SigilProfiler(SigilConfig()) if tool == "sigil"
            else CallgrindCollector()
        )
        trace = [
            ("on_fn_enter", "main"), ("on_fn_enter", "sys:x"),
            ("on_mem_write", 0x100, 8), ("on_fn_exit", "sys:x"),
            ("on_fn_enter", "g"), ("on_mem_read", 0x100, 8),
            ("on_fn_exit", "g"), ("on_fn_exit", "main"),
        ]
        with pytest.raises(
            RuntimeError,
            match=r"enter\('sys:x'\) on thread 0 under main; the 'sys:' prefix",
        ):
            for hook, *args in trace:
                getattr(observer, hook)(*args)

    def test_unbalanced_exits_raise_located_errors(self):
        t = ContextTracker()
        t.on_thread_switch(2)
        with pytest.raises(RuntimeError, match=r"exit\('f'\) with no function open on thread 2"):
            t.on_fn_exit("f")
        with pytest.raises(RuntimeError, match=r"syscall_exit\('read'\) .* thread 2"):
            t.on_syscall_exit("read", 0)

    def test_open_frames_at_run_end_are_not_an_error(self):
        t = ContextTracker()
        t.on_fn_enter("main")
        assert len(t.stack) == 2  # a program may end inside a call
