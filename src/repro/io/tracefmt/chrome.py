"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

One JSON array of ``ph``-keyed events, per the trace-event format
(https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
The builders below return a list of *parts*: event dicts for metadata,
slice, flow and phase events, and a :class:`CounterTrack` of two columns for
each counter track.  :func:`dumps_chrome` is the one encoder of both; a
counter track's samples are written straight from its columns, so no dict
is built per sample.

* every compute segment of an :class:`~repro.core.segments.EventArrays`
  log becomes a complete duration event (``ph: "X"``) on a per-context
  track (``tid`` = context id) inside a per-virtual-thread process
  (``pid`` = thread + ``pid_base``);
* every ``data`` edge becomes a flow-event pair (``ph: "s"`` at the
  producing segment's end, ``ph: "f"`` at the consuming segment's start)
  whose ``args.bytes`` carries the unique byte count;
* counter tracks (``ph: "C"``) chart cumulative transferred unique bytes
  and cumulative retired operations over segment time;
* :mod:`repro.telemetry` phase timers become duration events in a separate
  ``pid`` (:data:`PIPELINE_PID`), so one Perfetto view shows the
  reproduction's own setup/execute/aggregate phases alongside the profiled
  workload's segments.

Timestamps are microseconds by convention; workload tracks use the paper's
retired-instruction clock one-for-one ("an architecture-independent proxy
for execution time", section IV-B), pipeline tracks use wall seconds scaled
to microseconds.  A segment's duration is the operations attributed to the
fragment, so preempted fragments draw their attributed cost, not their wall
extent.  Non-unique traffic never appears: re-reads create no new
dependency, so the event log records only unique transfers (section II-B).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.common.cct import ContextTree
from repro.core.segments import EventArrays

__all__ = [
    "PIPELINE_PID",
    "CounterTrack",
    "events_to_chrome",
    "curves_to_chrome",
    "spans_to_chrome",
    "synthesize_spans",
    "manifest_to_chrome",
    "dumps_chrome",
    "dump_chrome",
]

#: Process id of the pipeline-phase tracks (workload threads start at 1).
PIPELINE_PID = 0

Span = Tuple[str, float, float]


@dataclass(frozen=True)
class CounterTrack:
    """One counter track (``ph: "C"``, ``tid`` 0) as two columns.

    Sample ``k`` is the event ``{"ph": "C", "name": name, "pid": pid,
    "tid": 0, "ts": ts[k], "args": {name: values[k]}}``.  Both columns hold
    plain finite ``int``/``float`` values (``.tolist()`` of a NumPy array,
    not the array); :func:`dumps_chrome` rejects anything else.
    """

    name: str
    pid: int
    ts: Sequence[Union[int, float]]
    values: Sequence[Union[int, float]]


#: One trace part: an event dict, or a counter track's columns.
Part = Union[Dict[str, Any], CounterTrack]


def _ctx_label(tree: Optional[ContextTree], ctx_id: int) -> str:
    if tree is not None and 0 <= ctx_id < len(tree.nodes):
        node = tree.node(ctx_id)
        return node.name if node.parent is not None else "<root>"
    return f"ctx{ctx_id}"


def events_to_chrome(
    events: EventArrays,
    tree: Optional[ContextTree] = None,
    *,
    pid_base: int = 1,
) -> List[Part]:
    """Render an event log as a list of Chrome trace parts.

    Pass the run's :class:`~repro.common.cct.ContextTree` to label tracks
    with function names; without it tracks are named by context id (event
    files do not store names).  An empty log renders as an empty trace
    (``[]`` is valid Chrome trace JSON) rather than zero-sample counter
    tracks with no process metadata.
    """
    out: List[Part] = []
    if not events.n_segments:
        return out
    # One (ctx, call, start, ops, thread) tuple per segment id.
    segs = events.segs.tolist()
    for thread in sorted({row[4] for row in segs}):
        out.append({
            "ph": "M", "name": "process_name", "pid": pid_base + thread,
            "tid": 0, "args": {"name": f"workload thread {thread}"},
        })
    seen_tracks = set()
    for ctx, _call, _start, _ops, thread in segs:
        if (thread, ctx) not in seen_tracks:
            seen_tracks.add((thread, ctx))
            out.append({
                "ph": "M", "name": "thread_name",
                "pid": pid_base + thread, "tid": ctx,
                "args": {"name": _ctx_label(tree, ctx)},
            })
    for seg_id, (ctx, call, start, ops, thread) in enumerate(segs):
        out.append({
            "ph": "X", "name": _ctx_label(tree, ctx), "cat": "segment",
            "ts": start, "dur": ops,
            "pid": pid_base + thread, "tid": ctx,
            "args": {"seg": seg_id, "call": call, "ops": ops},
        })
    data_edges = events.data.tolist()
    # Flow arrows: producer's end -> consumer's start, one id per edge.
    for flow_id, (src, dst, nbytes) in enumerate(data_edges, start=1):
        s_ctx, _, s_start, s_ops, s_thread = segs[src]
        d_ctx, _, d_start, _, d_thread = segs[dst]
        common = {"name": "data", "cat": "dataflow", "id": flow_id,
                  "args": {"bytes": nbytes, "src": src, "dst": dst}}
        out.append({
            "ph": "s", "ts": s_start + s_ops,
            "pid": pid_base + s_thread, "tid": s_ctx, **common,
        })
        out.append({
            "ph": "f", "bp": "e", "ts": d_start,
            "pid": pid_base + d_thread, "tid": d_ctx, **common,
        })
    out.extend(_counter_tracks(segs, data_edges, pid_base=pid_base))
    return out


def _counter_tracks(
    segs: List[tuple], data_edges: List[tuple], *, pid_base: int
) -> List[CounterTrack]:
    """Cumulative unique-byte and ops counter tracks over segment time."""
    edges = sorted(data_edges, key=lambda e: segs[e[1]][2])
    done = sorted((s for s in segs if s[3]), key=lambda s: s[2] + s[3])
    return [
        CounterTrack(
            "unique bytes (cum)", pid_base,
            [0] + [segs[dst][2] for _src, dst, _nbytes in edges],
            list(accumulate((e[2] for e in edges), initial=0)),
        ),
        CounterTrack(
            "ops (cum)", pid_base,
            [0] + [start + ops for _c, _k, start, ops, _t in done],
            list(accumulate((s[3] for s in done), initial=0)),
        ),
    ]


# ---------------------------------------------------------------------------
# time-resolved curves (repro.analysis.windowed)
# ---------------------------------------------------------------------------


def curves_to_chrome(
    curves,
    *,
    pid: int = 1,
    include_cumulative: bool = True,
    process_name: Optional[str] = "workload timeline",
) -> List[Part]:
    """Counter tracks for :class:`~repro.analysis.windowed.WindowedCurves`.

    Returns the optional ``process_name`` metadata event followed by one
    :class:`CounterTrack` per curve, each with one sample per window at the
    window's start timestamp (the paper's retired-ops clock): ``WS(t)
    bytes`` (live communicated bytes), ``comm bytes/window``,
    ``ops/window`` and ``mean reuse lifetime (ops)`` (rounded to 3
    places).  With ``include_cumulative`` the running integrals ``unique
    bytes (cum)`` and ``ops (cum)`` ride along too, so a timeline-only trace
    still carries the tracks :func:`events_to_chrome` draws; pass ``False``
    when combining with a full event trace to avoid near-duplicate tracks
    (and ``process_name=None`` to keep the event view's process labels).
    An empty curve set renders as an empty trace.
    """
    n = curves.n_windows
    if n == 0:
        return []
    out: List[Part] = []
    if process_name is not None:
        out.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": process_name}}
        )
    ts = list(range(0, n * curves.window, curves.window))
    comm = curves.comm_bytes.tolist()
    ops = curves.ops.tolist()
    tracks = [
        ("WS(t) bytes", curves.ws_bytes.tolist()),
        ("comm bytes/window", comm),
        ("ops/window", ops),
        ("mean reuse lifetime (ops)",
         [round(v, 3) for v in curves.mean_lifetime.tolist()]),
    ]
    if include_cumulative:
        tracks.append(("unique bytes (cum)", list(accumulate(comm))))
        tracks.append(("ops (cum)", list(accumulate(ops))))
    out.extend(CounterTrack(name, pid, ts, values) for name, values in tracks)
    return out


# ---------------------------------------------------------------------------
# pipeline phase spans
# ---------------------------------------------------------------------------


def synthesize_spans(phases: Mapping[str, float]) -> List[Span]:
    """Lay out a phase-seconds snapshot as ``(path, start, end)`` spans.

    Old manifests carry only accumulated seconds per phase path; this packs
    them into a plausible timeline: top-level phases run back to back in
    entry order, nested phases (``execute/replay``) are placed inside their
    parent, siblings back to back from the parent's start.
    """
    spans: List[Span] = []
    starts: Dict[str, float] = {"": 0.0}
    cursors: Dict[str, float] = {"": 0.0}
    for path, seconds in phases.items():
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        start = cursors.get(parent, starts.get(parent, 0.0))
        end = start + float(seconds)
        cursors[parent] = end
        starts[path] = start
        cursors.setdefault(path, start)
        spans.append((path, start, end))
    return spans


def spans_to_chrome(
    spans: Iterable[Span],
    *,
    pid: int = PIPELINE_PID,
    process_name: str = "repro pipeline",
) -> List[Dict[str, Any]]:
    """Render pipeline phase spans (wall seconds) as Chrome trace events."""
    out: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": process_name}},
        {"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
         "args": {"name": "phases"}},
    ]
    for path, start, end in spans:
        out.append({
            "ph": "X", "name": path.rsplit("/", 1)[-1], "cat": "phase",
            "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3),
            "pid": pid, "tid": 0, "args": {"path": path},
        })
    return out


def manifest_to_chrome(manifest) -> List[Dict[str, Any]]:
    """Pipeline trace of one :class:`~repro.telemetry.Manifest`.

    Uses the manifest's recorded spans when present (schema >= this PR),
    falling back to a synthesized layout of the phase-seconds dict for
    older files.
    """
    spans = manifest.phase_spans() or synthesize_spans(manifest.phases)
    label = f"repro pipeline ({manifest.workload}/{manifest.size})"
    return spans_to_chrome(spans, process_name=label)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def dumps_chrome(parts: Iterable[Part]) -> str:
    """Serialise trace parts as the JSON array form of the format.

    The one Chrome-trace encoder.  Runs of event dicts go through
    :mod:`json` as they are; a :class:`CounterTrack` is written sample by
    sample from its columns, byte-for-byte what :mod:`json` writes for the
    same samples as dicts.  Raises :class:`ValueError` naming the track
    and sample when a column holds anything but a finite ``int`` or
    ``float`` (``NaN`` and ``Infinity`` are not JSON).
    """
    pieces: List[str] = []
    run: List[Dict[str, Any]] = []
    for part in parts:
        if not isinstance(part, CounterTrack):
            run.append(part)
            continue
        if run:
            pieces.append(_ENCODER.encode(run)[1:-1])
            run = []
        samples = _encode_track(part)
        if samples:
            pieces.append(samples)
    if run:
        pieces.append(_ENCODER.encode(run)[1:-1])
    return "[" + ",".join(pieces) + "]\n"


def _encode_track(track: CounterTrack) -> str:
    if len(track.ts) != len(track.values):
        raise ValueError(
            f"counter track {track.name!r}: {len(track.ts)} timestamps but "
            f"{len(track.values)} values"
        )
    _check_column(track, "ts", track.ts)
    _check_column(track, "value", track.values)
    name = _ENCODER.encode(track.name)
    pid = _ENCODER.encode(track.pid)
    head = f'{{"ph":"C","name":{name},"pid":{pid},"tid":0,"ts":'
    mid = f',"args":{{{name}:'
    return ",".join([
        f"{head}{ts!r}{mid}{value!r}}}}}"
        for ts, value in zip(track.ts, track.values)
    ])


def _check_column(track: CounterTrack, what: str, column) -> None:
    """Raise unless every entry of ``column`` is a finite int or float."""
    kinds = set(map(type, column))
    if kinds <= {int}:
        return
    if kinds <= {int, float}:
        try:
            if all(map(math.isfinite, column)):
                return
        except OverflowError:  # an int beyond float range; look one by one
            pass
    for k, value in enumerate(column):
        if type(value) is int or (
            type(value) is float and math.isfinite(value)
        ):
            continue
        raise ValueError(
            f"counter track {track.name!r}: sample {k} {what} is "
            f"{value!r}, not a finite int or float"
        )


def dump_chrome(parts: Iterable[Part], path: Union[str, Path]) -> None:
    """Write :func:`dumps_chrome` of ``parts`` to ``path`` (open the file
    in ui.perfetto.dev)."""
    Path(path).write_text(dumps_chrome(parts))
