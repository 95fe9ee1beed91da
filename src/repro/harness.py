"""One-call orchestration: run a workload under the chosen tool stack.

Mirrors how the paper collects data: a *native* run (no tool), a *Callgrind*
run (calltree costs + cache/branch simulation), and a *Sigil* run (shadow
memory, optionally alongside Callgrind so partitioning studies can join
communication with timing).  Wall-clock is measured per pipeline phase --
workload *setup*, substrate *execute*, profile *aggregate* -- so the Figure
4-6 overhead characterisation charges only tool time to the tool, and every
telemetry-enabled run yields a structured :class:`~repro.telemetry.Manifest`
describing its own cost (per-phase seconds, events/sec, shadow footprint).
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
from repro.trace.batch import DEFAULT_BATCH_SIZE, BatchingTransport
from repro.trace.observer import NullObserver, ObserverPipe, TraceObserver
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
]

log = logging.getLogger("repro.harness")


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
        """This run as Chrome trace events: workload timeline + pipeline.

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
            for phase, seconds in (
                ("setup", self.setup_seconds),
                ("execute", self.execute_seconds),
                ("aggregate", self.aggregate_seconds),
            ):
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
    """Build the observer fan-out for a run.

    Returns ``(observer, counter)``.  With null telemetry the composition is
    byte-for-byte what the seed code built -- a lone tool is attached
    directly, several share one pipe -- so a telemetry-less run dispatches
    zero additional Python-level calls per event.  With telemetry enabled,
    an :class:`EventCounter` (and, if configured, a heartbeat) joins the
    pipe.
    """
    counter = None
    observers: List[TraceObserver] = list(tools)
    if telemetry.enabled:
        counter = EventCounter()
        observers.append(counter)
        heartbeat = telemetry.make_heartbeat(label)
        if heartbeat is not None:
            observers.append(heartbeat)
    if not observers:
        return NullObserver(), counter
    if len(observers) == 1:
        return observers[0], counter
    return ObserverPipe(observers), counter


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
    tel = telemetry if telemetry is not None else NULL_TELEMETRY

    t0 = time.perf_counter()
    workload = get_workload(name, size)
    cfg = config if config is not None else SigilConfig()
    sigil = SigilProfiler(cfg) if with_sigil else None
    callgrind = CallgrindCollector() if with_callgrind else None
    tools = [obs for obs in (sigil, callgrind) if obs is not None]
    observer, counter = _assemble_observer(
        tools, tel, f"{workload.name}/{workload.size.value}"
    )
    # Batched transport (default on): accumulate memory accesses (and, for
    # lenient tools, branches) and hand the tools whole batches.
    # batch_size=0 keeps the one-call-per-access path; profiles are
    # identical either way.  Built only when an attached tool has a batch
    # kernel (Callgrind): Sigil replays every batch through its scalar
    # kernel, so a Sigil-only run would pay for buffering and gain nothing.
    transport = None
    if (
        tools
        and cfg.batch_size > 0
        and getattr(observer, "batch_beneficial", True)
    ):
        transport = BatchingTransport(observer, cfg.batch_size)
        observer = transport
    t1 = time.perf_counter()

    workload.run(observer)
    t2 = time.perf_counter()

    sigil_profile = sigil.profile() if sigil is not None else None
    callgrind_profile = callgrind.profile if callgrind is not None else None
    t3 = time.perf_counter()

    run = ProfiledRun(
        workload=workload,
        sigil=sigil_profile,
        callgrind=callgrind_profile,
        setup_seconds=t1 - t0,
        execute_seconds=t2 - t1,
        aggregate_seconds=t3 - t2,
    )
    if tel.enabled:
        tel.timers.record("setup", run.setup_seconds)
        tel.timers.record("execute", run.execute_seconds)
        tel.timers.record("aggregate", run.aggregate_seconds)
        if sigil is not None:
            sigil.record_telemetry(tel)
        if callgrind is not None:
            callgrind.record_telemetry(tel)
        if transport is not None:
            transport.record_telemetry(tel)
        if counter is not None:
            counter.publish(tel)
        tel.record_process_stats()
        run.manifest = build_manifest(
            workload=workload.name,
            size=workload.size.value,
            config=cfg,
            phases=tel.timers.snapshot(),
            spans=tel.timers.spans(),
            metrics=tel.metrics.snapshot(),
            events_total=counter.total if counter is not None else 0,
            execute_seconds=run.execute_seconds,
        )
        log.info(
            "%s/%s: setup %.3fs, execute %.3fs, aggregate %.3fs, %s events",
            workload.name,
            workload.size.value,
            run.setup_seconds,
            run.execute_seconds,
            run.aggregate_seconds,
            f"{counter.total:,}" if counter is not None else "?",
        )
    return run


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
    return profile_workload(
        name,
        size,
        config=config,
        with_sigil="sigil" in tool,
        with_callgrind="callgrind" in tool,
        telemetry=telemetry,
    )


def native_run(
    name: str,
    size: InputSize | str = InputSize.SIMSMALL,
    *,
    telemetry: Optional[Telemetry] = None,
) -> ProfiledRun:
    """An uninstrumented run with per-phase timing (the Figure 4 baseline)."""
    return profile_workload(
        name, size, with_sigil=False, with_callgrind=False, telemetry=telemetry
    )


def native_seconds(name: str, size: InputSize | str = InputSize.SIMSMALL) -> float:
    """Execute-phase wall-clock of an uninstrumented run."""
    return native_run(name, size).execute_seconds


def line_reuse_run(
    name: str,
    size: InputSize | str = InputSize.SIMSMALL,
    *,
    line_size: int = 64,
    batch_size: int = DEFAULT_BATCH_SIZE,
    telemetry: Optional[Telemetry] = None,
) -> LineReuseProfiler:
    """Run a workload under the line-granularity re-use mode (Figure 12).

    ``batch_size`` selects the batched trace transport (0 = scalar calls);
    the per-line records are identical either way.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.phase("setup"):
        workload = get_workload(name, size)
        profiler = LineReuseProfiler(line_size)
        observer: TraceObserver = profiler
        if batch_size > 0:
            observer = BatchingTransport(profiler, batch_size)
    with tel.phase("execute"):
        workload.run(observer)
    if tel.enabled:
        profiler.record_telemetry(tel)
        tel.record_process_stats()
    return profiler
