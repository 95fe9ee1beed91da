"""Traced-Python runtime substrate used by the synthetic workload suite."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.decorators": ("traced",),
    "repro.runtime.memory": ("Arena", "Buffer"),
    "repro.runtime.runtime": (
        "RuntimeError_", "TracedRuntime", "run_interleaved",
    ),
})
