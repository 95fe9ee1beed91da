"""One-call orchestration: run a workload under the chosen tool stack.

Mirrors how the paper collects data: a *native* run (no tool), a *Callgrind*
run (calltree costs + cache/branch simulation), and a *Sigil* run (shadow
memory, optionally alongside Callgrind so partitioning studies can join
communication with timing).  One private driver, ``_drive``, runs every
entry point -- :func:`profile_workload` and its wrappers,
:func:`line_reuse_run`, ``repro run`` and ``repro reuse`` -- so each
assembles its pipe, times its *setup*/*execute*/*aggregate* phases (Figures
4-6 charge only tool time to the tool) and yields a telemetry
:class:`~repro.telemetry.Manifest` the same way.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.callgrind.collector import CallgrindCollector, CallgrindProfile
from repro.core.config import SigilConfig
from repro.core.linegrain import LineReuseProfiler
from repro.core.profiler import SigilProfile, SigilProfiler
from repro.telemetry import (
    NULL_TELEMETRY,
    EventCounter,
    Manifest,
    Telemetry,
    build_manifest,
)
from repro.trace.batch import BatchingTransport
from repro.trace.observer import ObserverPipe, TraceObserver
from repro.workloads.base import InputSize, Workload
from repro.workloads.registry import get_workload

__all__ = [
    "ProfiledRun",
    "TOOL_STACKS",
    "profile_workload",
    "run_tool",
    "native_run",
    "native_seconds",
    "line_reuse_run",
    "transport_for",
]

log = logging.getLogger("repro.harness")

#: The pipeline phases every driven run times, in order.
_PHASES = ("setup", "execute", "aggregate")


@dataclass
class ProfiledRun:
    """Results of one instrumented workload execution.

    Wall time is split by pipeline phase; the historical ``wall_seconds``
    total survives as a property so existing callers keep working.
    """

    workload: Workload
    sigil: Optional[SigilProfile]
    callgrind: Optional[CallgrindProfile]
    setup_seconds: float = 0.0
    execute_seconds: float = 0.0
    aggregate_seconds: float = 0.0
    manifest: Optional[Manifest] = field(default=None, repr=False)

    @property
    def wall_seconds(self) -> float:
        """Total wall time across all phases (the pre-split single number)."""
        return self.setup_seconds + self.execute_seconds + self.aggregate_seconds

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def size(self) -> InputSize:
        return self.workload.size

    # -- trace export -----------------------------------------------------

    def chrome_trace(self) -> list:
        """This run as Chrome trace parts: workload timeline + pipeline.

        The parts are event dicts and
        :class:`~repro.io.tracefmt.CounterTrack` columns, as the
        :mod:`repro.io.tracefmt.chrome` builders return them; pass the list
        to ``dumps_chrome``/``dump_chrome`` (or :meth:`write_trace`) for
        the JSON.

        The workload's segments/data-flows appear when the run collected an
        event log, together with the time-resolved WS(t)/communication
        counter tracks (:mod:`repro.analysis.windowed`); the pipeline's
        setup/execute/aggregate spans come from the manifest when telemetry
        ran, else from the measured phase seconds laid out back to back.
        One Perfetto view then shows the reproduction's own phases
        alongside the profiled execution.
        """
        from repro.analysis.windowed import windowed_curves
        from repro.io.tracefmt import (
            curves_to_chrome,
            events_to_chrome,
            manifest_to_chrome,
            spans_to_chrome,
        )

        trace: list = []
        if self.sigil is not None and self.sigil.events is not None:
            trace.extend(events_to_chrome(self.sigil.events, self.sigil.tree))
            # The cumulative tracks already ride along with the event view;
            # the windowed tracks add the time-resolved ones.
            trace.extend(
                curves_to_chrome(
                    windowed_curves(self.sigil.events),
                    include_cumulative=False,
                    process_name=None,
                )
            )
        if self.manifest is not None:
            trace.extend(manifest_to_chrome(self.manifest))
        else:
            cursor = 0.0
            spans = []
            for phase, seconds in zip(_PHASES, (
                self.setup_seconds, self.execute_seconds, self.aggregate_seconds
            )):
                spans.append((phase, cursor, cursor + seconds))
                cursor += seconds
            label = f"repro pipeline ({self.name}/{self.size.value})"
            trace.extend(spans_to_chrome(spans, process_name=label))
        return trace

    def write_trace(self, path: Union[str, Path]) -> Path:
        """Write :meth:`chrome_trace` as JSON; returns the path written."""
        from repro.io.tracefmt import dump_chrome

        dump_chrome(self.chrome_trace(), path)
        return Path(path)


def _assemble_observer(
    tools: List[TraceObserver],
    telemetry: Telemetry,
    label: str,
) -> tuple:
    """Build the observer pipe for a run; returns ``(pipe, counter)``.

    With telemetry enabled, ``counter`` is an :class:`EventCounter` -- the
    heartbeat, an event counter that beats, when one is configured -- at
    the end of the pipe; else None.  The pipe calls only the hooks a member
    implements, and a hook one member implements is that member's bound
    method, so with null telemetry a run dispatches zero additional
    Python-level calls per event.
    """
    observers: List[TraceObserver] = list(tools)
    counter = None
    if telemetry.enabled:
        counter = telemetry.make_heartbeat(label) or EventCounter()
        observers.append(counter)
    return ObserverPipe(observers), counter


def transport_for(observer: TraceObserver) -> TraceObserver:
    """What a substrate should call: ``observer``, batched when that pays off.

    The one place that decides on the batched transport.  It is built
    exactly when every attached tool has a batch kernel
    (``batch_beneficial``: Callgrind, the line re-use profiler, the
    telemetry event counter).  One scalar-only member -- the Sigil profiler
    in any config, a heartbeat -- makes every batch replay access by
    access, so the transport would only add buffering and a second
    dispatch; such a pipe is called directly.  Output is byte-identical
    either way.
    """
    if getattr(observer, "batch_beneficial", False):
        return BatchingTransport(observer)
    return observer


def _drive(run, tools, aggregate, *, name, size, config, telemetry, started):
    """The one run driver: assemble, time, publish and manifest one run.

    ``run(observer)`` executes the substrate (a workload's ``run``, or
    ``Machine.run`` on a program) and ``aggregate()`` then distils the
    ``tools``' results.  Setup is timed from the caller's ``started``
    :func:`time.perf_counter` reading, so it covers building the workload
    and the tools.

    Returns ``(result, aggregated, seconds, manifest)``: what ``run`` and
    ``aggregate`` returned, the per-phase seconds in :data:`_PHASES` order,
    and the run's manifest (None with null telemetry).
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    observer, counter = _assemble_observer(tools, telemetry, f"{name}/{size}")
    # A run with no tool is the native baseline: the telemetry counter alone
    # never puts a transport in front of the substrate.
    dispatch = transport_for(observer) if tools else observer
    t1 = time.perf_counter()
    result = run(dispatch)
    t2 = time.perf_counter()
    aggregated = aggregate()
    t3 = time.perf_counter()
    seconds = (t1 - started, t2 - t1, t3 - t2)
    manifest = None
    if telemetry.enabled:
        for phase, phase_seconds in zip(_PHASES, seconds):
            telemetry.timers.record(phase, phase_seconds)
        for tool in tools:
            # Not every observer publishes metrics (the stack-distance
            # profiler does not).
            record = getattr(tool, "record_telemetry", None)
            if record is not None:
                record(telemetry)
        if dispatch is not observer:
            dispatch.record_telemetry(telemetry)
        counter.publish(telemetry)
        telemetry.record_process_stats()
        manifest = build_manifest(
            workload=name,
            size=size,
            config=config,
            phases=telemetry.timers.snapshot(),
            spans=telemetry.timers.spans(),
            metrics=telemetry.metrics.snapshot(),
            events_total=counter.total,
            execute_seconds=seconds[1],
        )
        log.info(
            "%s/%s: setup %.3fs, execute %.3fs, aggregate %.3fs, %s events",
            name, size, *seconds, f"{counter.total:,}",
        )
    return result, aggregated, seconds, manifest


def profile_workload(
    name: str,
    size: InputSize | str = InputSize.SIMSMALL,
    *,
    config: Optional[SigilConfig] = None,
    with_sigil: bool = True,
    with_callgrind: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> ProfiledRun:
    """Run workload ``name`` at ``size`` under the requested observers.

    Pass a :class:`~repro.telemetry.Telemetry` to measure the run itself:
    phase timings, dispatch counts and profiler footprints are collected and
    distilled into ``ProfiledRun.manifest``.  The default null telemetry
    reproduces the uninstrumented pipeline exactly.
    """
    return _profile(name, size, config, with_sigil, with_callgrind, telemetry, ())


def _profile(name, size, config, with_sigil, with_callgrind, telemetry, extra):
    """:func:`profile_workload`, with the ``extra`` observers riding in the
    same run after the tools (``repro reuse --mrc``'s stack distances)."""
    started = time.perf_counter()
    workload = get_workload(name, size)
    cfg = config if config is not None else SigilConfig()
    sigil = SigilProfiler(cfg) if with_sigil else None
    # Paired, Callgrind follows the calling-context layer Sigil drives from
    # the head of the pipe: each call and access is tracked once.
    contexts = sigil.contexts if sigil is not None else None
    callgrind = CallgrindCollector(contexts=contexts) if with_callgrind else None
    tools = [obs for obs in (sigil, callgrind, *extra) if obs is not None]

    def aggregate():
        return (
            sigil.profile() if sigil is not None else None,
            callgrind.profile if callgrind is not None else None,
        )

    _, (sigil_profile, callgrind_profile), seconds, manifest = _drive(
        workload.run,
        tools,
        aggregate,
        name=workload.name,
        size=workload.size.value,
        config=cfg,
        telemetry=telemetry,
        started=started,
    )
    return ProfiledRun(
        workload, sigil_profile, callgrind_profile, *seconds, manifest
    )


#: Named tool stacks, mirroring how the paper labels its runs: the
#: uninstrumented baseline, the Callgrind substrate alone, Sigil alone, and
#: the paired run used for the partitioning studies.  Campaign specs and the
#: figure benches key their jobs on these names.
TOOL_STACKS = ("native", "callgrind", "sigil", "sigil+callgrind")


def run_tool(
    name: str,
    size: InputSize | str = InputSize.SIMSMALL,
    tool: str = "sigil+callgrind",
    *,
    config: Optional[SigilConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> ProfiledRun:
    """Run ``name`` under the named tool stack (see :data:`TOOL_STACKS`).

    This is the single dispatch point between declarative job descriptions
    (campaign specs, bench tables) and the observer combinations
    :func:`profile_workload` assembles.
    """
    if tool not in TOOL_STACKS:
        raise ValueError(
            f"unknown tool stack {tool!r}; available: {', '.join(TOOL_STACKS)}"
        )
    return _profile(
        name, size, config, "sigil" in tool, "callgrind" in tool, telemetry, ()
    )


def native_run(
    name: str,
    size: InputSize | str = InputSize.SIMSMALL,
    *,
    telemetry: Optional[Telemetry] = None,
) -> ProfiledRun:
    """An uninstrumented run with per-phase timing (the Figure 4 baseline)."""
    return _profile(name, size, None, False, False, telemetry, ())


def native_seconds(name: str, size: InputSize | str = InputSize.SIMSMALL) -> float:
    """Execute-phase wall-clock of an uninstrumented run."""
    return native_run(name, size).execute_seconds


def line_reuse_run(
    name: str,
    size: InputSize | str = InputSize.SIMSMALL,
    *,
    line_size: int = 64,
    telemetry: Optional[Telemetry] = None,
) -> LineReuseProfiler:
    """Run a workload under the line-granularity re-use mode (Figure 12).

    With ``telemetry``, the run's manifest is ``profiler.manifest``.
    """
    started = time.perf_counter()
    workload = get_workload(name, size)
    profiler = LineReuseProfiler(line_size)
    *_, profiler.manifest = _drive(
        workload.run,
        [profiler],
        lambda: None,
        name=workload.name,
        size=workload.size.value,
        config={"line_size": line_size},
        telemetry=telemetry,
        started=started,
    )
    return profiler
