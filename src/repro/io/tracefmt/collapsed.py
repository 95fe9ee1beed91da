"""Collapsed-stack flamegraph export from a Sigil calling-context tree.

The collapsed ("folded") format -- one ``frame;frame;frame weight`` line per
stack -- is the lingua franca of flamegraph tooling: speedscope and Brendan
Gregg's ``flamegraph.pl`` both read it directly.  Each calling context of
the CCT contributes one stack (its path of function names from the entry
point) carrying a *self* weight, so inclusive weights emerge from the
renderer's own stacking, exactly as with sampled profiles.

The weight axis is selectable, mirroring the paper's communication metrics
rather than just time:

==============  ============================================================
``ops``         operations retired in the context (section II-A self cost)
``unique_in``   unique input bytes -- first-time reads from other contexts
``unique_out``  unique output bytes -- bytes other contexts first-read
``local``       unique bytes produced and consumed by the context itself
``comm``        ``unique_in + unique_out``: the offload volume behind the
                breakeven-speedup denominator t_comm:ip + t_comm:op (Eq. 1)
==============  ============================================================

Weights are exact byte/op counts, so a flamegraph in ``unique_in`` sums to
the profile's total unique input bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Union

if TYPE_CHECKING:  # the weights only read a profile; `--weight` needs no profiler
    from repro.core.profiler import SigilProfile

__all__ = ["COLLAPSED_WEIGHTS", "profile_to_collapsed", "dumps_collapsed", "dump_collapsed"]


def _w_ops(profile: SigilProfile, ctx_id: int) -> int:
    return profile.fn_comm(ctx_id).ops


def _w_unique_in(profile: SigilProfile, ctx_id: int) -> int:
    return profile.unique_input_bytes(ctx_id)


def _w_unique_out(profile: SigilProfile, ctx_id: int) -> int:
    return profile.unique_output_bytes(ctx_id)


def _w_local(profile: SigilProfile, ctx_id: int) -> int:
    return profile.unique_local_bytes(ctx_id)


def _w_comm(profile: SigilProfile, ctx_id: int) -> int:
    return profile.unique_input_bytes(ctx_id) + profile.unique_output_bytes(ctx_id)


#: weight name -> (profile, ctx_id) -> integer self weight
COLLAPSED_WEIGHTS: Dict[str, Callable[[SigilProfile, int], int]] = {
    "ops": _w_ops,
    "unique_in": _w_unique_in,
    "unique_out": _w_unique_out,
    "local": _w_local,
    "comm": _w_comm,
}


def profile_to_collapsed(profile: SigilProfile, weight: str = "ops") -> str:
    """Render a profile's CCT as collapsed-stack text under ``weight``.

    Zero-weight contexts are omitted (the flamegraph convention); frame
    names are the context's path of function names joined by ``;``.
    """
    try:
        weigh = COLLAPSED_WEIGHTS[weight]
    except KeyError:
        raise ValueError(
            f"unknown weight {weight!r}; choose from "
            f"{', '.join(sorted(COLLAPSED_WEIGHTS))}"
        ) from None
    lines: List[str] = []
    for node in profile.contexts():
        value = weigh(profile, node.id)
        if value > 0:
            lines.append(f"{';'.join(node.path)} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def dumps_collapsed(profile: SigilProfile, weight: str = "ops") -> str:
    """Alias of :func:`profile_to_collapsed` matching the io naming scheme."""
    return profile_to_collapsed(profile, weight)


def dump_collapsed(
    profile: SigilProfile, path: Union[str, Path], weight: str = "ops"
) -> None:
    """Write the collapsed-stack rendering of ``profile`` to ``path``."""
    Path(path).write_text(profile_to_collapsed(profile, weight))
