"""Persistence of aggregate profiles (Sigil's first output representation).

A line-oriented text format in the spirit of callgrind-format files.  The
paper promises released "profile data for many commonly used benchmarks ...
researchers can use the data without running Sigil"; this module is that
interchange path: :func:`dump_profile` / :func:`load_profile` round-trip
everything except the raw event log (see :mod:`repro.io.eventfile`).

Format (``# sigil-profile 1``)::

    config reuse=<0|1> event=<0|1> line=<n>
    time <retired>
    shadow <live> <peak> <evicted> <bytes> <peak_bytes>
    ctx <id> <parent_id> <calls> <name>
    fn <ctx> <iops> <flops> <reads> <read_bytes> <writes> <write_bytes> <sys_in> <sys_out>
    edge <writer> <reader> <unique> <nonunique>
    reuse-fn <ctx> <windows> <lifetime_sum> <accesses>
    reuse-hist <ctx> <bin>:<count> ...
    reuse-buckets <c0> <c1> <c2> <c3> <c4> <c5>

Function names are the final whitespace-delimited field and may themselves
contain spaces only after escaping; we forbid newlines and rely on names
being the last token group on ``ctx`` lines.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, TextIO, Union

import numpy as np

from repro.common.cct import ContextTree
from repro.core.aggregate import CommMatrix, FnComm
from repro.core.config import SigilConfig
from repro.core.profiler import ShadowStats, SigilProfile
from repro.core.reuse import ReuseStats

__all__ = [
    "dump_profile",
    "load_profile",
    "dumps_profile",
    "loads_profile",
    "profile_digest",
]

_MAGIC = "# sigil-profile 1"


def profile_digest(profile: SigilProfile) -> str:
    """SHA-256 of the canonical serialised form of ``profile``.

    :func:`dumps_profile` emits context, function, and edge lines in sorted
    deterministic order, so equal profiles serialise to equal bytes; the
    campaign result store records this digest so cache hits can be verified
    byte-for-byte against what was originally computed.
    """
    import hashlib

    return hashlib.sha256(dumps_profile(profile).encode()).hexdigest()


def dumps_profile(profile: SigilProfile) -> str:
    """Serialise a profile to text."""
    lines: List[str] = [_MAGIC]
    cfg = profile.config
    lines.append(
        f"config reuse={int(cfg.reuse_mode)} event={int(cfg.event_mode)} "
        f"line={cfg.line_size}"
    )
    lines.append(f"time {profile.total_time}")
    st = profile.shadow_stats
    lines.append(
        f"shadow {st.live_pages} {st.peak_pages} {st.pages_evicted} "
        f"{st.shadow_bytes} {st.peak_shadow_bytes}"
    )
    for node in profile.tree.nodes:
        if node.parent is None:
            continue
        if "\n" in node.name:
            raise ValueError(f"function name contains newline: {node.name!r}")
        lines.append(f"ctx {node.id} {node.parent.id} {node.calls} {node.name}")
    for ctx_id, fc in sorted(profile.functions.items()):
        lines.append(
            f"fn {ctx_id} {fc.iops} {fc.flops} {fc.reads} {fc.read_bytes} "
            f"{fc.writes} {fc.write_bytes} {fc.syscall_input_bytes} "
            f"{fc.syscall_output_bytes}"
        )
    for (writer, reader), edge in sorted(profile.comm.items()):
        lines.append(
            f"edge {writer} {reader} {edge.unique_bytes} {edge.nonunique_bytes}"
        )
    if profile.reuse is not None:
        for ctx_id, stats in sorted(profile.reuse.per_fn.items()):
            lines.append(
                f"reuse-fn {ctx_id} {stats.reused_windows} {stats.lifetime_sum} "
                f"{stats.reuse_accesses}"
            )
            if stats.histogram:
                pairs = " ".join(
                    f"{b}:{c}" for b, c in sorted(stats.histogram.items())
                )
                lines.append(f"reuse-hist {ctx_id} {pairs}")
        buckets = " ".join(str(int(b)) for b in profile.reuse.byte_buckets)
        lines.append(f"reuse-buckets {buckets}")
    return "\n".join(lines) + "\n"


def dump_profile(profile: SigilProfile, path: Union[str, Path]) -> None:
    """Write a profile to ``path`` as UTF-8, with no newline translation."""
    Path(path).write_bytes(dumps_profile(profile).encode("utf-8"))


def _located(exc: Exception, number: int, line: str) -> ValueError:
    """``exc`` as a :class:`ValueError` naming the line it came from."""
    reason = exc if isinstance(exc, ValueError) else repr(exc)
    return ValueError(f"{reason} (line {number}: {line!r})")


def loads_profile(text: str) -> SigilProfile:
    """Parse a profile previously produced by :func:`dumps_profile`.

    Raises :class:`ValueError` naming the line number and text of the
    first malformed record.
    """
    # Only "\n" ends a line: names may hold any other line-break character.
    lines = text.removesuffix("\n").split("\n")
    if not lines or lines[0] != _MAGIC:
        first = lines[0] if lines else ""
        raise ValueError(f"not a sigil profile file (bad magic) (line 1: {first!r})")

    tree = ContextTree()
    functions: Dict[int, FnComm] = {}
    comm = CommMatrix()
    reuse: ReuseStats | None = None
    config = SigilConfig()
    total_time = 0
    shadow = ShadowStats(0, 0, 0, 0, 0)
    id_map: Dict[int, int] = {0: 0}  # file ctx id -> rebuilt ctx id

    for number, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        try:
            kind, _, rest = line.partition(" ")
            if kind == "config":
                kv = dict(item.split("=", 1) for item in rest.split())
                config = SigilConfig(
                    reuse_mode=bool(int(kv["reuse"])),
                    event_mode=bool(int(kv["event"])),
                    line_size=int(kv["line"]),
                )
                if config.reuse_mode:
                    reuse = ReuseStats()
            elif kind == "time":
                total_time = int(rest)
            elif kind == "shadow":
                parts = [int(x) for x in rest.split()]
                shadow = ShadowStats(*parts)
            elif kind == "ctx":
                fields = rest.split(" ", 3)
                file_id, parent_id, calls = int(fields[0]), int(fields[1]), int(fields[2])
                name = fields[3]
                parent = tree.node(id_map[parent_id])
                node = tree.child(parent, name)
                node.calls = calls
                id_map[file_id] = node.id
            elif kind == "fn":
                parts = [int(x) for x in rest.split()]
                functions[id_map[parts[0]]] = FnComm(
                    iops=parts[1],
                    flops=parts[2],
                    reads=parts[3],
                    read_bytes=parts[4],
                    writes=parts[5],
                    write_bytes=parts[6],
                    syscall_input_bytes=parts[7],
                    syscall_output_bytes=parts[8],
                )
            elif kind == "edge":
                parts = [int(x) for x in rest.split()]
                writer = id_map[parts[0]] if parts[0] >= 0 else parts[0]
                comm.add(writer, id_map[parts[1]], unique=parts[2], nonunique=parts[3])
            elif kind == "reuse-fn":
                if reuse is None:
                    raise ValueError("reuse-fn line in non-reuse profile")
                parts = [int(x) for x in rest.split()]
                stats = reuse.fn(id_map[parts[0]])
                stats.reused_windows = parts[1]
                stats.lifetime_sum = parts[2]
                stats.reuse_accesses = parts[3]
            elif kind == "reuse-hist":
                if reuse is None:
                    raise ValueError("reuse-hist line in non-reuse profile")
                ctx_str, _, pairs = rest.partition(" ")
                stats = reuse.fn(id_map[int(ctx_str)])
                for pair in pairs.split():
                    b, _, c = pair.partition(":")
                    stats.histogram[int(b)] = int(c)
            elif kind == "reuse-buckets":
                if reuse is None:
                    raise ValueError("reuse-buckets line in non-reuse profile")
                reuse.byte_buckets = np.array([int(x) for x in rest.split()], dtype=np.int64)
            else:
                raise ValueError(f"unknown profile line kind: {kind!r}")
        except (
            IndexError, KeyError, OverflowError, TypeError, ValueError
        ) as exc:
            raise _located(exc, number, line) from None

    return SigilProfile(
        config, tree, functions, comm, reuse, None, shadow, total_time
    )


def load_profile(path: Union[str, Path]) -> SigilProfile:
    """Read a profile previously written by :func:`dump_profile`."""
    return loads_profile(Path(path).read_bytes().decode("utf-8"))
