"""Self-telemetry for the Sigil pipeline: the profiler measuring itself.

The paper's evaluation (Figures 4-6) is an overhead/throughput study of the
tool, not of the workloads; this package gives the reproduction the same
self-awareness.  It provides metric primitives (counters, gauges,
histograms), nested phase timers, an opt-in stderr progress heartbeat, a
per-kind event-dispatch counter, and structured JSON run manifests -- all
behind a :class:`~repro.telemetry.session.Telemetry` facade whose
:data:`~repro.telemetry.session.NULL_TELEMETRY` default is a true no-op on
the observer hot path.

Quick start::

    from repro import Telemetry, profile_workload
    tel = Telemetry(heartbeat_events=1_000_000)
    run = profile_workload("vips", "simsmall", telemetry=tel)
    run.manifest.write("vips.manifest.json")
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.counting": ("EventCounter",),
    "repro.telemetry.heartbeat": ("CLOCK_CHECK_INTERVAL", "HeartbeatObserver"),
    "repro.telemetry.jsonl": ("append_jsonl", "read_jsonl"),
    "repro.telemetry.manifest": (
        "MANIFEST_SCHEMA", "Manifest", "build_manifest", "config_hash",
        "git_rev",
    ),
    "repro.telemetry.metrics": (
        "Counter", "Gauge", "Histogram", "MetricRegistry",
    ),
    "repro.telemetry.prometheus": ("render_prometheus",),
    "repro.telemetry.session": (
        "NULL_TELEMETRY", "NullTelemetry", "Telemetry",
    ),
    "repro.telemetry.timers": ("PhaseTimer",),
})
