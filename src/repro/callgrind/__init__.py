"""Callgrind-equivalent: calltree costs, cache/branch simulation, cycles."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.callgrind.branch": ("BimodalPredictor",),
    "repro.callgrind.cache": (
        "AccessResult", "Cache", "CacheConfig", "CacheHierarchy",
    ),
    "repro.callgrind.collector": (
        "CallgrindCollector", "CallgrindCosts", "CallgrindProfile",
    ),
    "repro.callgrind.cycles": ("DEFAULT_CYCLE_MODEL", "CycleModel"),
})
