"""Sigil core: shadow-memory communication profiling."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.aggregate": ("CommEdge", "CommMatrix", "FnComm"),
    "repro.core.config": ("SigilConfig",),
    "repro.core.distance": ("COLD", "ReuseDistanceProfiler"),
    "repro.core.linegrain": ("LineRecord", "LineReuseProfiler"),
    "repro.core.profiler": ("ShadowStats", "SigilProfile", "SigilProfiler"),
    "repro.core.reuse": (
        "REUSE_BUCKET_BOUNDS", "REUSE_BUCKET_LABELS", "FnReuse", "ReuseStats",
        "bucketise_counts",
    ),
    "repro.core.segments": (
        "EDGE_CALL", "EDGE_DATA", "EDGE_ORDER", "EventArrays", "Segment",
    ),
    "repro.core.shadow": ("SHADOW_PAGE_SIZE", "ShadowMemory", "ShadowPage"),
})
