"""Calling-context tracking shared by the Callgrind observer and Sigil.

Both tools "keep separate accounting of costs for functions called through
different contexts" (paper, section III): costs are attributed not to a bare
function name but to a *context* -- the chain of function names from the root
of the run to the function.  Figure 2 relies on this (function D appears as
two nodes, D1 and D2, one per calling context).

A :class:`ContextNode` is one such context.  Node ids are dense small
integers, which lets tools keep per-context cost records in flat structures
and lets the shadow memory store "pointer to function" (Table I) as an int32.

A :class:`ContextTracker` is the one calling-context layer both tools
charge costs to: the tree, per-thread call stacks, the call counter and one
:class:`ContextCosts` record per context.  In the paired run the two tools
share one tracker: Sigil drives it and Callgrind only reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.trace.events import OpKind

__all__ = [
    "ContextCosts",
    "ContextNode",
    "ContextTracker",
    "ContextTree",
    "Frame",
    "ROOT_NAME",
    "INVALID_CTX",
    "SYSCALL_PREFIX",
]

ROOT_NAME = "<root>"

#: Name prefix of a system-call boundary node (``sys:read``).  Reserved: a
#: program function may not take it, so the name alone tells a system call
#: from a function, in a live tree and in a loaded profile alike.
SYSCALL_PREFIX = "sys:"

#: Shadow-memory value meaning "no recorded function" (Table I: entries are
#: initialised to *invalid* until the corresponding byte is used).
INVALID_CTX = -1


class ContextNode:
    """One calling context: a function name plus the chain of its callers."""

    __slots__ = ("id", "name", "parent", "children", "calls", "depth")

    def __init__(self, node_id: int, name: str, parent: Optional["ContextNode"]):
        self.id = node_id
        self.name = name
        self.parent = parent
        self.children: Dict[str, ContextNode] = {}
        self.calls = 0
        self.depth = 0 if parent is None else parent.depth + 1

    @property
    def path(self) -> Tuple[str, ...]:
        """Function names from the root (exclusive) down to this node."""
        names: List[str] = []
        node: Optional[ContextNode] = self
        while node is not None and node.parent is not None:
            names.append(node.name)
            node = node.parent
        return tuple(reversed(names))

    def walk(self) -> Iterator["ContextNode"]:
        """Yield this node and all descendants, depth-first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContextNode(#{self.id} {'/'.join(self.path) or ROOT_NAME})"


class ContextTree:
    """Interns calling contexts and assigns dense ids."""

    def __init__(self) -> None:
        self.root = ContextNode(0, ROOT_NAME, None)
        self.nodes: List[ContextNode] = [self.root]

    def child(self, parent: ContextNode, name: str) -> ContextNode:
        """Get or create the context for ``name`` called from ``parent``."""
        node = parent.children.get(name)
        if node is None:
            node = ContextNode(len(self.nodes), name, parent)
            parent.children[name] = node
            self.nodes.append(node)
        return node

    def node(self, ctx_id: int) -> ContextNode:
        return self.nodes[ctx_id]

    def find(self, path: Tuple[str, ...]) -> Optional[ContextNode]:
        """Look up a context by its path of function names; None if absent."""
        node = self.root
        for name in path:
            nxt = node.children.get(name)
            if nxt is None:
                return None
            node = nxt
        return node

    def by_name(self, name: str) -> List[ContextNode]:
        """All contexts whose function name is ``name``."""
        return [n for n in self.nodes if n.name == name]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(slots=True)
class ContextCosts:
    """Self costs of one calling context: the one record both tools charge.

    The tool driving the tracker counts operations and traffic.  Sigil adds the
    bytes crossing the system-call boundary; Callgrind adds cache misses,
    branches, mispredictions and system calls.
    """

    iops: int = 0
    flops: int = 0
    reads: int = 0
    read_bytes: int = 0
    writes: int = 0
    write_bytes: int = 0
    syscall_input_bytes: int = 0
    syscall_output_bytes: int = 0
    l1_misses: int = 0
    ll_misses: int = 0
    branches: int = 0
    branch_misses: int = 0
    syscalls: int = 0

    @property
    def ops(self) -> int:
        """Total computational operations (the paper's platform-independent
        computation metric)."""
        return self.iops + self.flops

    @property
    def instructions(self) -> int:
        """Retired instructions: every operation, memory access and branch
        (the substrates stream no instruction-fetch event)."""
        return self.iops + self.flops + self.reads + self.writes + self.branches

    def add(self, other: "ContextCosts") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def copy(self) -> "ContextCosts":
        return replace(self)


class Frame:
    """One active call: its context, its call id, its cost record and, in
    Sigil's event mode, the segment it is running in."""

    __slots__ = ("node", "call_id", "costs", "segment")

    def __init__(self, node: ContextNode, call_id: int, costs: ContextCosts):
        self.node = node
        self.call_id = call_id
        self.costs = costs
        self.segment = None


class ContextTracker:
    """The calling-context layer: per-thread call stacks over one tree.

    Its hooks are named like observer callbacks: a tool that drives the
    tracker forwards each event to it before doing its own work.  A tool
    following another's tracker never calls them; it reads :attr:`frame`
    and adds its own counts to :attr:`cur`, the current context's record.

    Each thread has its own stack of active calls and of system calls in
    flight.  Call ids count calls across all threads; a new thread's root
    frame takes a fresh one.
    """

    def __init__(self) -> None:
        self.tree = ContextTree()
        self.costs: Dict[int, ContextCosts] = {}
        #: Id of the latest call (thread 0's root call takes id 0).
        self.calls = -1
        self._threads: Dict[int, Tuple[List[Frame], List[ContextNode]]] = {}
        self.on_thread_switch(0)

    def _costs_for(self, node: ContextNode) -> ContextCosts:
        costs = self.costs.get(node.id)
        if costs is None:
            costs = self.costs[node.id] = ContextCosts()
        return costs

    def on_thread_switch(self, tid: int) -> None:
        thread = self._threads.get(tid)
        if thread is None:
            self.calls += 1
            root = Frame(self.tree.root, self.calls, self._costs_for(self.tree.root))
            thread = self._threads[tid] = ([root], [])
        self.tid = tid
        self.stack, self._syscalls = thread
        self.frame = self.stack[-1]
        self.cur = self.frame.costs

    def on_fn_enter(self, name: str) -> None:
        if name.startswith(SYSCALL_PREFIX):
            raise RuntimeError(
                f"reserved name: enter({name!r}) on thread {self.tid} under "
                f"{'/'.join(self.frame.node.path) or ROOT_NAME}; the "
                f"{SYSCALL_PREFIX!r} prefix marks system calls"
            )
        node = self.tree.child(self.frame.node, name)
        node.calls += 1
        self.calls += 1
        self.frame = Frame(node, self.calls, self._costs_for(node))
        self.stack.append(self.frame)
        self.cur = self.frame.costs

    def on_fn_exit(self, name: str) -> None:
        stack = self.stack
        if len(stack) <= 1:
            raise RuntimeError(
                f"unbalanced trace: exit({name!r}) with no function open "
                f"on thread {self.tid}"
            )
        stack.pop()
        self.frame = stack[-1]
        self.cur = self.frame.costs

    def on_op(self, kind: OpKind, count: int) -> None:
        if kind is OpKind.FLOAT:
            self.cur.flops += count
        else:
            self.cur.iops += count

    def on_mem_read(self, addr: int, size: int) -> None:
        self.cur.reads += 1
        self.cur.read_bytes += size

    def on_mem_write(self, addr: int, size: int) -> None:
        self.cur.writes += 1
        self.cur.write_bytes += size

    def on_mem_batch_runs(self, addrs, rkeys, rends) -> None:
        """Count a run-length batch of accesses from its run descriptors."""
        cur = self.cur
        prev = 0
        for key, end in zip(rkeys, rends):
            cnt = end - prev
            prev = end
            if key & 1:
                cur.writes += cnt
                cur.write_bytes += cnt * (key >> 1)
            else:
                cur.reads += cnt
                cur.read_bytes += cnt * (key >> 1)

    def on_syscall_enter(self, name: str, input_bytes: int) -> ContextNode:
        """Open the ``sys:<name>`` boundary node under the current context.

        The calling context stays current: the system call's own work is
        not traced.  Returns the node.
        """
        node = self.tree.child(self.frame.node, SYSCALL_PREFIX + name)
        node.calls += 1
        self._costs_for(node)
        self._syscalls.append(node)
        return node

    def on_syscall_exit(self, name: str, output_bytes: int) -> ContextNode:
        """Close the innermost system call in flight; returns its node."""
        if not self._syscalls:
            raise RuntimeError(
                f"unbalanced trace: syscall_exit({name!r}) with no system "
                f"call open on thread {self.tid}"
            )
        return self._syscalls.pop()
