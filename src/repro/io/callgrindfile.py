"""Persistence of Callgrind-equivalent profiles.

The partitioning case study joins Sigil's communication data with
Callgrind's timing data; storing both makes the whole study runnable
offline, matching the paper's release model.  Format
(``# callgrind-equiv 1``)::

    model <per_instruction> <per_branch_miss> <per_l1_miss> <per_ll_miss>
    ctx <id> <parent_id> <calls> <name>
    cost <ctx> <ir> <iops> <flops> <reads> <read_B> <writes> <write_B>
         <l1m> <llm> <br> <brm> <sys>

Contexts are numbered densely as written, in tree order (root 0).  Nodes
made by the system-call hook are Sigil's and not written.  ``ir`` is
operations + accesses + branches, checked on load.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

from repro.callgrind.collector import CallgrindCosts, CallgrindProfile
from repro.callgrind.cycles import CycleModel
from repro.common.cct import SYSCALL_PREFIX, ContextTree
from repro.io.profilefile import _located

__all__ = [
    "dump_callgrind",
    "dumps_callgrind",
    "load_callgrind",
    "loads_callgrind",
]

_MAGIC = "# callgrind-equiv 1"


def dumps_callgrind(profile: CallgrindProfile) -> str:
    """Serialise a Callgrind-equivalent profile to text."""
    lines: List[str] = [_MAGIC]
    m = profile.cycle_model
    lines.append(
        f"model {m.per_instruction} {m.per_branch_miss} "
        f"{m.per_l1_miss} {m.per_ll_miss}"
    )
    ids = {0: 0}  # tree id -> file id, numbered as written
    for node in profile.tree.nodes:
        if node.parent is None or node.name.startswith(SYSCALL_PREFIX):
            continue
        if "\n" in node.name:
            raise ValueError(f"function name contains newline: {node.name!r}")
        ids[node.id] = file_id = len(ids)
        lines.append(f"ctx {file_id} {ids[node.parent.id]} {node.calls} {node.name}")
    for ctx_id, c in sorted(profile.self_costs.items()):
        if ctx_id not in ids:
            continue
        lines.append(
            f"cost {ids[ctx_id]} {c.instructions} {c.iops} {c.flops} "
            f"{c.reads} {c.read_bytes} {c.writes} {c.write_bytes} {c.l1_misses} "
            f"{c.ll_misses} {c.branches} {c.branch_misses} {c.syscalls}"
        )
    return "\n".join(lines) + "\n"


def dump_callgrind(profile: CallgrindProfile, path: Union[str, Path]) -> None:
    """Write a Callgrind-equivalent profile to ``path`` as UTF-8 bytes."""
    Path(path).write_bytes(dumps_callgrind(profile).encode("utf-8"))


def loads_callgrind(text: str) -> CallgrindProfile:
    """Parse a Callgrind-equivalent profile from text.

    Raises :class:`ValueError` naming the line number and text of the
    first malformed record.
    """
    # Only "\n" ends a line: names may hold any other line-break character.
    lines = text.removesuffix("\n").split("\n")
    if not lines or lines[0] != _MAGIC:
        first = lines[0] if lines else ""
        raise ValueError(
            f"not a callgrind-equivalent profile (bad magic) (line 1: {first!r})"
        )
    tree = ContextTree()
    profile = CallgrindProfile(tree)
    id_map: Dict[int, int] = {0: 0}
    for number, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        try:
            kind, _, rest = line.partition(" ")
            if kind == "model":
                parts = [float(x) for x in rest.split()]
                profile.cycle_model = CycleModel(*parts)
            elif kind == "ctx":
                fields = rest.split(" ", 3)
                file_id, parent_id, calls = int(fields[0]), int(fields[1]), int(fields[2])
                if fields[3].startswith(SYSCALL_PREFIX):
                    raise ValueError(f"function {fields[3]!r} takes the "
                                     f"system-call prefix {SYSCALL_PREFIX!r}")
                node = tree.child(tree.node(id_map[parent_id]), fields[3])
                node.calls = calls
                id_map[file_id] = node.id
            elif kind == "cost":
                parts = [int(x) for x in rest.split()]
                costs = CallgrindCosts(
                    iops=parts[2],
                    flops=parts[3],
                    reads=parts[4],
                    read_bytes=parts[5],
                    writes=parts[6],
                    write_bytes=parts[7],
                    l1_misses=parts[8],
                    ll_misses=parts[9],
                    branches=parts[10],
                    branch_misses=parts[11],
                    syscalls=parts[12],
                )
                if costs.instructions != parts[1]:
                    raise ValueError(f"ir {parts[1]} is not ops + accesses + "
                                     f"branches ({costs.instructions})")
                profile.self_costs[id_map[parts[0]]] = costs
            else:
                raise ValueError(f"unknown callgrind line kind: {kind!r}")
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise _located(exc, number, line) from None
    return profile


def load_callgrind(path: Union[str, Path]) -> CallgrindProfile:
    """Read a profile previously written by :func:`dump_callgrind`."""
    return loads_callgrind(Path(path).read_bytes().decode("utf-8"))
