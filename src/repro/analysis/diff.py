"""Profile diffing: compare two Sigil profiles context by context.

The ``callgrind_diff`` analogue for communication profiles.  Two profiles of
the same program at different input sizes show how work and communication
*scale*; two profiles of different program versions show what an
optimisation did to the dataflow (did re-reads drop? did a function's unique
input shrink?).  Contexts are matched by call path, so the comparison is
stable across runs even though context ids are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.profiler import SigilProfile

__all__ = ["ContextDelta", "ProfileDiff", "diff_profiles"]


@dataclass(frozen=True)
class ContextDelta:
    """Per-context change between a baseline and a subject profile."""

    path: Tuple[str, ...]
    calls: Tuple[int, int]
    ops: Tuple[int, int]
    unique_input: Tuple[int, int]
    unique_output: Tuple[int, int]
    nonunique_input: Tuple[int, int]

    @property
    def name(self) -> str:
        return self.path[-1] if self.path else "<root>"

    @property
    def ops_delta(self) -> int:
        return self.ops[1] - self.ops[0]

    @property
    def ops_ratio(self) -> float:
        return self.ops[1] / self.ops[0] if self.ops[0] else float("inf")

    @property
    def only_in_baseline(self) -> bool:
        return self.calls[1] == 0 and self.calls[0] > 0

    @property
    def only_in_subject(self) -> bool:
        return self.calls[0] == 0 and self.calls[1] > 0


@dataclass
class ProfileDiff:
    """All per-context deltas plus program-level totals."""

    deltas: List[ContextDelta]
    total_ops: Tuple[int, int]
    total_time: Tuple[int, int]

    def by_ops_change(self, n: Optional[int] = None) -> List[ContextDelta]:
        ranked = sorted(self.deltas, key=lambda d: abs(d.ops_delta), reverse=True)
        return ranked[:n] if n is not None else ranked

    def appeared(self) -> List[ContextDelta]:
        return [d for d in self.deltas if d.only_in_subject]

    def disappeared(self) -> List[ContextDelta]:
        return [d for d in self.deltas if d.only_in_baseline]

    @property
    def ops_ratio(self) -> float:
        return (
            self.total_ops[1] / self.total_ops[0]
            if self.total_ops[0]
            else float("inf")
        )


def _nonunique_input(profile: SigilProfile, ctx_id: int) -> int:
    return sum(
        e.nonunique_bytes for e in profile.comm.input_edges(ctx_id).values()
    )


def diff_profiles(baseline: SigilProfile, subject: SigilProfile) -> ProfileDiff:
    """Match contexts by call path and compute per-context deltas."""
    paths: Dict[Tuple[str, ...], List[Optional[int]]] = {}
    for node in baseline.contexts():
        paths.setdefault(node.path, [None, None])[0] = node.id
    for node in subject.contexts():
        paths.setdefault(node.path, [None, None])[1] = node.id

    deltas: List[ContextDelta] = []
    for path in sorted(paths):
        base_id, subj_id = paths[path]

        def stats(profile: Optional[SigilProfile], ctx: Optional[int]):
            if profile is None or ctx is None:
                return 0, 0, 0, 0, 0
            node = profile.tree.node(ctx)
            return (
                node.calls,
                profile.fn_comm(ctx).ops,
                profile.unique_input_bytes(ctx),
                profile.unique_output_bytes(ctx),
                _nonunique_input(profile, ctx),
            )

        b = stats(baseline, base_id)
        s = stats(subject, subj_id)
        deltas.append(ContextDelta(
            path=path,
            calls=(b[0], s[0]),
            ops=(b[1], s[1]),
            unique_input=(b[2], s[2]),
            unique_output=(b[3], s[3]),
            nonunique_input=(b[4], s[4]),
        ))

    return ProfileDiff(
        deltas=deltas,
        total_ops=(baseline.total_ops(), subject.total_ops()),
        total_time=(baseline.total_time, subject.total_time),
    )
