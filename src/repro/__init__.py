"""repro: reproduction of "Platform-independent analysis of function-level
communication in workloads" (Nilakantan & Hempstead, IISWC 2013) -- the
Sigil communication profiler, its Callgrind-equivalent substrate, a
synthetic PARSEC-like workload suite, and the paper's post-processing
analyses (CDFG partitioning, data re-use, critical paths).

Quick start::

    from repro import profile_workload, SigilConfig
    run = profile_workload("blackscholes", "simsmall",
                           config=SigilConfig(reuse_mode=True, event_mode=True))
    print(run.sigil.total_time, len(run.sigil.tree))

Every package re-exports its public names lazily (see :mod:`repro._lazy`):
a name's defining module is imported when the name is first used.
"""

from repro._lazy import lazy_exports

__version__ = "1.2.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.config": ("SigilConfig",),
    "repro.core.profiler": ("SigilProfile", "SigilProfiler"),
    "repro.harness": (
        "ProfiledRun", "line_reuse_run", "native_run", "native_seconds",
        "profile_workload",
    ),
    "repro.telemetry.manifest": ("Manifest",),
    "repro.telemetry.session": ("NullTelemetry", "Telemetry"),
    "repro.workloads.registry": ("ALL_NAMES", "PARSEC_NAMES", "get_workload"),
    "repro.workloads.base": ("InputSize",),
})
__all__.append("__version__")
