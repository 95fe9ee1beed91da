"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

One JSON array of ``ph``-keyed event dicts, per the trace-event format
(https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):

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
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.common.cct import ContextTree
from repro.core.segments import EventArrays

__all__ = [
    "PIPELINE_PID",
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
) -> List[Dict[str, Any]]:
    """Render an event log as a list of Chrome trace events.

    Pass the run's :class:`~repro.common.cct.ContextTree` to label tracks
    with function names; without it tracks are named by context id (event
    files do not store names).  An empty log renders as an empty trace
    (``[]`` is valid Chrome trace JSON) rather than zero-sample counter
    tracks with no process metadata.
    """
    out: List[Dict[str, Any]] = []
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
    out.extend(_counter_events(segs, data_edges, pid_base=pid_base))
    return out


def _counter_events(
    segs: List[tuple], data_edges: List[tuple], *, pid_base: int
) -> List[Dict[str, Any]]:
    """Cumulative unique-byte and ops counter tracks over segment time."""
    out: List[Dict[str, Any]] = []

    def sample(name: str, ts: int, value: int) -> Dict[str, Any]:
        return {"ph": "C", "name": name, "pid": pid_base, "tid": 0,
                "ts": ts, "args": {name: value}}

    total = 0
    out.append(sample("unique bytes (cum)", 0, 0))
    for _src, dst, nbytes in sorted(data_edges, key=lambda e: segs[e[1]][2]):
        total += nbytes
        out.append(sample("unique bytes (cum)", segs[dst][2], total))
    ops_total = 0
    out.append(sample("ops (cum)", 0, 0))
    for _ctx, _call, start, ops, _thread in sorted(
        segs, key=lambda s: s[2] + s[3]
    ):
        if ops:
            ops_total += ops
            out.append(sample("ops (cum)", start + ops, ops_total))
    return out


# ---------------------------------------------------------------------------
# time-resolved curves (repro.analysis.windowed)
# ---------------------------------------------------------------------------


def curves_to_chrome(
    curves,
    *,
    pid: int = 1,
    include_cumulative: bool = True,
    process_name: Optional[str] = "workload timeline",
) -> List[Dict[str, Any]]:
    """Counter tracks for :class:`~repro.analysis.windowed.WindowedCurves`.

    One sample per window at the window's start timestamp (the paper's
    retired-ops clock): ``WS(t) bytes`` (live communicated bytes),
    ``comm bytes/window``, ``ops/window`` and ``mean reuse lifetime (ops)``.
    With ``include_cumulative`` the running integrals ``unique bytes (cum)``
    and ``ops (cum)`` ride along too, so a timeline-only trace still carries
    the tracks :func:`events_to_chrome` draws; pass ``False`` when combining
    with a full event trace to avoid near-duplicate tracks (and
    ``process_name=None`` to keep the event view's process labels).  An
    empty curve set renders as an empty trace.
    """
    n = curves.n_windows
    if n == 0:
        return []
    out: List[Dict[str, Any]] = []
    if process_name is not None:
        out.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": process_name}}
        )

    def track(name: str, values) -> None:
        for k, value in enumerate(values):
            out.append({
                "ph": "C", "name": name, "pid": pid, "tid": 0,
                "ts": k * curves.window, "args": {name: value},
            })

    ws = curves.ws_bytes.tolist()
    comm = curves.comm_bytes.tolist()
    ops = curves.ops.tolist()
    life = [round(float(v), 3) for v in curves.mean_lifetime.tolist()]
    track("WS(t) bytes", ws)
    track("comm bytes/window", comm)
    track("ops/window", ops)
    track("mean reuse lifetime (ops)", life)
    if include_cumulative:
        track("unique bytes (cum)", list(_running_sum(comm)))
        track("ops (cum)", list(_running_sum(ops)))
    return out


def _running_sum(values):
    total = 0
    for v in values:
        total += v
        yield total


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


def dumps_chrome(trace_events: List[Dict[str, Any]]) -> str:
    """Serialise trace events as the JSON array form of the format."""
    return json.dumps(trace_events, separators=(",", ":")) + "\n"


def dump_chrome(
    trace_events: List[Dict[str, Any]], path: Union[str, Path]
) -> None:
    """Write trace events to ``path`` (open the file in ui.perfetto.dev)."""
    Path(path).write_text(dumps_chrome(trace_events))
