"""Export profiles in the (real) callgrind file format.

Sigil is built on Callgrind, and its ecosystem views profiles in
KCachegrind/QCacheGrind; this exporter writes our profiles in the callgrind
format (https://valgrind.org/docs/manual/cl-format.html) so they open in
those tools unmodified.

Two flavours:

* :func:`export_callgrind` — the Callgrind-equivalent's cost events
  (``Ir Dr Dw L1m LLm Bc Bm``) with the full call graph and inclusive call
  costs.
* :func:`export_sigil` — Sigil's communication metrics as synthetic events
  (``Ops UniqIn UniqOut Local NonUniqIn``), letting the calltree browser
  navigate *communication* the way it usually navigates cycles.

Calling contexts are flattened to functions (the format attributes costs to
``fn=`` entries); context sensitivity survives through the call graph
(``cfn=``/``calls=`` records), which is exactly how Callgrind itself emits
cycle-context data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.callgrind.collector import CallgrindCosts, CallgrindProfile
from repro.common.cct import SYSCALL_PREFIX, ContextNode
from repro.core.profiler import SigilProfile

__all__ = ["export_callgrind", "export_sigil"]


def _emit_header(events: str, command: str) -> List[str]:
    return [
        "# callgrind format",
        "version: 1",
        "creator: repro-sigil 1.0",
        f"cmd: {command}",
        "part: 1",
        "",
        f"events: {events}",
        "",
    ]


def _cost_line(c: CallgrindCosts) -> str:
    return (
        f"0 {c.instructions} {c.reads} {c.writes} {c.l1_misses} "
        f"{c.ll_misses} {c.branches} {c.branch_misses}"
    )


def export_callgrind(
    profile: CallgrindProfile, path: Union[str, Path], *, command: str = "repro"
) -> None:
    """Write a CallgrindProfile as a callgrind-format file."""
    lines = _emit_header("Ir Dr Dw L1m LLm Bc Bm", command)
    # System-call boundary nodes are Sigil's; Callgrind charges the call's
    # count to the caller and writes no such function.
    for node in profile.tree.nodes:
        if node.parent is None or node.name.startswith(SYSCALL_PREFIX):
            continue
        lines.append(f"fn={node.name}")
        lines.append(_cost_line(profile.costs_of(node.id)))
        for child in node.children.values():
            if child.name.startswith(SYSCALL_PREFIX):
                continue
            lines.append(f"cfn={child.name}")
            lines.append(f"calls={max(child.calls, 1)} 0")
            lines.append(_cost_line(profile.inclusive_costs(child)))
        lines.append("")
    Path(path).write_text("\n".join(lines) + "\n")


def _sigil_cost_vector(profile: SigilProfile, ctx_id: int) -> Tuple[int, ...]:
    comm = profile.fn_comm(ctx_id)
    nonuniq_in = sum(
        e.nonunique_bytes for e in profile.comm.input_edges(ctx_id).values()
    )
    return (
        comm.ops,
        profile.unique_input_bytes(ctx_id),
        profile.unique_output_bytes(ctx_id),
        profile.unique_local_bytes(ctx_id),
        nonuniq_in,
    )


def export_sigil(
    profile: SigilProfile, path: Union[str, Path], *, command: str = "repro"
) -> None:
    """Write a SigilProfile's communication metrics as a callgrind file."""
    lines = _emit_header("Ops UniqIn UniqOut Local NonUniqIn", command)
    # Inclusive communication for call records: sum the subtree's vectors.
    cache: Dict[int, Tuple[int, ...]] = {}

    def inclusive(node: ContextNode) -> Tuple[int, ...]:
        cached = cache.get(node.id)
        if cached is None:
            total = list(_sigil_cost_vector(profile, node.id))
            for child in node.children.values():
                for i, v in enumerate(inclusive(child)):
                    total[i] += v
            cached = tuple(total)
            cache[node.id] = cached
        return cached

    for node in profile.tree.nodes:
        if node.parent is None:
            continue
        vector = _sigil_cost_vector(profile, node.id)
        lines.append(f"fn={node.name}")
        lines.append("0 " + " ".join(str(v) for v in vector))
        for child in node.children.values():
            lines.append(f"cfn={child.name}")
            lines.append(f"calls={max(child.calls, 1)} 0")
            lines.append("0 " + " ".join(str(v) for v in inclusive(child)))
        lines.append("")
    Path(path).write_text("\n".join(lines) + "\n")
