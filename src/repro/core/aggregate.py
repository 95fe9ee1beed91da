"""Per-context communication aggregates: Sigil's first output representation.

Every communicated byte is classified on the two axes of section II-A:

1. **input / output / local** -- derived from the edge matrix: an edge
   ``(writer, reader)`` with ``writer == reader`` is *local* traffic; with
   different endpoints the bytes are *output* of the writer and *input* of
   the reader.  The pseudo-writer :data:`~repro.common.cct.INVALID_CTX`
   stands for bytes with no recorded producer, i.e. program input staged by
   the environment (the syscall-visibility limitation of section III).
2. **unique / non-unique** -- first-time reads of a byte by a function call
   versus re-reads by the same call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set, Tuple

from repro.common.cct import INVALID_CTX, ContextCosts, ContextNode

__all__ = ["FnComm", "CommEdge", "CommMatrix"]


#: Self costs and raw traffic of one calling context: Sigil's name for the
#: record both tools charge.
FnComm = ContextCosts


@dataclass
class CommEdge:
    """Bytes flowing from one context to another, split by uniqueness."""

    unique_bytes: int = 0
    nonunique_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.unique_bytes + self.nonunique_bytes


class CommMatrix:
    """Sparse (writer context, reader context) -> :class:`CommEdge` matrix."""

    def __init__(self) -> None:
        self._edges: Dict[Tuple[int, int], CommEdge] = {}

    def add(
        self, writer: int, reader: int, *, unique: int = 0, nonunique: int = 0
    ) -> None:
        edge = self._edges.get((writer, reader))
        if edge is None:
            edge = CommEdge()
            self._edges[(writer, reader)] = edge
        edge.unique_bytes += unique
        edge.nonunique_bytes += nonunique

    def get(self, writer: int, reader: int) -> CommEdge:
        return self._edges.get((writer, reader), CommEdge())

    def items(self) -> Iterable[Tuple[Tuple[int, int], CommEdge]]:
        return self._edges.items()

    def __len__(self) -> int:
        return len(self._edges)

    # -- per-context classification (input / output / local) ------------

    def local_edge(self, ctx: int) -> CommEdge:
        return self.get(ctx, ctx)

    def input_edges(self, ctx: int) -> Dict[int, CommEdge]:
        """writer -> edge, for all external producers read by ``ctx``."""
        return {
            w: e for (w, r), e in self._edges.items() if r == ctx and w != ctx
        }

    def output_edges(self, ctx: int) -> Dict[int, CommEdge]:
        """reader -> edge, for all external consumers of ``ctx``'s data."""
        return {
            r: e for (w, r), e in self._edges.items() if w == ctx and r != ctx
        }

    def unique_input_bytes(self, ctx: int) -> int:
        return sum(e.unique_bytes for e in self.input_edges(ctx).values())

    def unique_output_bytes(self, ctx: int) -> int:
        return sum(e.unique_bytes for e in self.output_edges(ctx).values())

    def unique_local_bytes(self, ctx: int) -> int:
        return self.local_edge(ctx).unique_bytes

    # -- subtree (inclusive) classification, for calltree merging -----------

    def boundary_bytes(
        self, subtree: Set[int], *, include_program_input: bool = True
    ) -> Tuple[int, int]:
        """Unique bytes crossing into / out of a merged set of contexts.

        This is the Figure 2 operation: "Any dashed edges within the box are
        then discarded and edges flowing in/out of the box are accumulated
        into the communication cost of the parent node."  Returns
        ``(input_bytes, output_bytes)`` of *unique* communication, since "the
        data flow edges in the graph must be unique communication" for an
        accelerator with internal memory (section IV-A).

        Bytes with no recorded producer (program input staged outside the
        program's own stores) are charged to the boundary by default -- an
        accelerator must receive its input data either way.  Pass
        ``include_program_input=False`` to model input arriving by DMA
        independent of the offload bus.
        """
        inp = 0
        out = 0
        for (writer, reader), edge in self._edges.items():
            if writer == INVALID_CTX and not include_program_input:
                continue
            writer_in = writer in subtree
            reader_in = reader in subtree
            if reader_in and not writer_in:
                inp += edge.unique_bytes
            elif writer_in and not reader_in:
                out += edge.unique_bytes
        return inp, out

    def subtree_ids(self, node: ContextNode) -> Set[int]:
        """Context ids of ``node`` and its whole calltree subtree."""
        return {sub.id for sub in node.walk()}
