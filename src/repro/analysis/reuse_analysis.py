"""Data re-use post-processing (section IV-B, Figures 8-11).

Turns the raw re-use statistics of a reuse-mode Sigil profile into the
paper's reported shapes: the per-byte re-use breakdown, the ranking of
functions by re-use contribution with average lifetimes, and per-function
lifetime histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.cct import SYSCALL_PREFIX, ContextNode
from repro.core.profiler import SigilProfile
from repro.core.reuse import REUSE_BUCKET_LABELS

__all__ = [
    "FIG8_LABELS",
    "byte_reuse_breakdown",
    "ReuseRanking",
    "top_reuse_functions",
    "lifetime_histogram",
    "top_unique_contributors",
]

#: Figure 8's three stacked sections.
FIG8_LABELS: Tuple[str, ...] = ("0", "1-9", ">9")


def _require_reuse(profile: SigilProfile) -> None:
    if profile.reuse is None:
        raise ValueError(
            "profile was not collected in reuse mode; "
            "rerun with SigilConfig(reuse_mode=True)"
        )


def byte_reuse_breakdown(
    profile: SigilProfile, *, normalised: bool = True
) -> Dict[str, float]:
    """Figure 8: fraction of data bytes by re-use count {0, 1-9, >9}."""
    _require_reuse(profile)
    raw = profile.reuse.byte_breakdown()
    merged = {
        "0": raw["0"],
        "1-9": raw["1-9"],
        ">9": raw["10-99"] + raw["100-999"] + raw["1000-9999"] + raw[">=10000"],
    }
    if not normalised:
        return {k: float(v) for k, v in merged.items()}
    total = sum(merged.values())
    if total == 0:
        return {k: 0.0 for k in merged}
    return {k: v / total for k, v in merged.items()}


@dataclass(frozen=True)
class ReuseRanking:
    """One context's standing in the re-use ranking (Figure 9 rows)."""

    node: ContextNode
    label: str
    reused_windows: int
    reuse_accesses: int
    average_lifetime: float
    unique_bytes_processed: int


def _context_label(profile: SigilProfile, node: ContextNode) -> str:
    """Function name, with ``(k)`` ordinal when several contexts share it
    ("some functions occur more than once in the figure and are
    distinguished by the number in parentheses")."""
    same = profile.tree.by_name(node.name)
    if len(same) <= 1:
        return node.name
    ordinal = sorted(n.id for n in same).index(node.id) + 1
    return f"{node.name}({ordinal})"


def top_reuse_functions(profile: SigilProfile, n: int = 10) -> List[ReuseRanking]:
    """Contexts sorted by their contribution to total data re-use.

    "We sort the functions ... based on their contribution to the total
    amount of data re-use.  Next ... we look at the top list of functions
    and examine the average lifetime of a re-used data byte (reused at least
    once) in those functions." (section IV-B1)
    """
    _require_reuse(profile)
    rankings: List[ReuseRanking] = []
    for ctx_id, stats in profile.reuse.per_fn.items():
        if stats.reused_windows == 0:
            continue
        node = profile.tree.node(ctx_id)
        rankings.append(
            ReuseRanking(
                node=node,
                label=_context_label(profile, node),
                reused_windows=stats.reused_windows,
                reuse_accesses=stats.reuse_accesses,
                average_lifetime=stats.average_lifetime,
                unique_bytes_processed=profile.unique_bytes_processed(ctx_id),
            )
        )
    rankings.sort(key=lambda r: r.reused_windows, reverse=True)
    return rankings[:n]


def lifetime_histogram(
    profile: SigilProfile, ctx_id: int
) -> List[Tuple[int, int]]:
    """Figures 10/11: (lifetime bin start, re-used byte count) pairs."""
    _require_reuse(profile)
    return profile.reuse.fn_histogram(ctx_id)


def top_unique_contributors(
    profile: SigilProfile, n: int = 10
) -> List[Tuple[str, int, float]]:
    """Contexts by share of the program's unique data bytes.

    Mirrors the vips drill-down: conv_gen, imb_XYZ2Lab and affine_gen "are
    the three biggest contributors to the total unique data bytes processed
    by the benchmark ... with each of their individual contributions being
    close to 10%".
    """
    totals = [
        (node, profile.unique_bytes_processed(node.id))
        for node in profile.contexts()
        if not node.name.startswith(SYSCALL_PREFIX)  # syscalls are not functions
    ]
    grand_total = sum(v for _, v in totals)
    totals.sort(key=lambda item: item[1], reverse=True)
    out = []
    for node, volume in totals[:n]:
        share = volume / grand_total if grand_total else 0.0
        out.append((_context_label(profile, node), volume, share))
    return out
