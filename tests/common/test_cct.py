"""Calling-context tree tests."""

from __future__ import annotations

import pytest

from repro.common.cct import ROOT_NAME, ContextTracker, ContextTree
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
        assert (node.name, node.syscall, node.calls) == ("sys:read", True, 1)
        assert t.frame.node.name == "main"
        assert t.on_syscall_exit("read", 0) is node
        t.on_fn_enter("sys:x")  # a program function, not a system call
        assert not t.frame.node.syscall

    @pytest.mark.parametrize("syscall_first", [True, False])
    def test_function_named_like_a_syscall_node_is_a_function(self, syscall_first):
        """A program function ``sys:x`` and system call ``x`` under one
        caller share one node, as they always have in Sigil's tree; the
        node is a function, so Callgrind writes it and its callees."""
        t = ContextTracker()

        def syscall():
            t.on_syscall_enter("x", 0)
            t.on_syscall_exit("x", 0)

        if syscall_first:
            syscall()
        t.on_fn_enter("sys:x")
        t.on_fn_enter("leaf")
        t.on_fn_exit("leaf")
        t.on_fn_exit("sys:x")
        if not syscall_first:
            syscall()
        node = t.tree.find(("sys:x",))
        assert (node.syscall, node.calls) == (False, 2)

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
