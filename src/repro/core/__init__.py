"""Sigil core: shadow-memory communication profiling."""

from repro.core.aggregate import CommEdge, CommMatrix, FnComm
from repro.core.config import SigilConfig
from repro.core.distance import COLD, ReuseDistanceProfiler
from repro.core.linegrain import LineRecord, LineReuseProfiler
from repro.core.profiler import ShadowStats, SigilProfile, SigilProfiler
from repro.core.reuse import (
    REUSE_BUCKET_BOUNDS,
    REUSE_BUCKET_LABELS,
    FnReuse,
    ReuseStats,
    bucketise_counts,
)
from repro.core.segments import (
    EDGE_CALL,
    EDGE_DATA,
    EDGE_ORDER,
    EventArrays,
    Segment,
)
from repro.core.shadow import SHADOW_PAGE_SIZE, ShadowMemory, ShadowPage

__all__ = [
    "CommEdge",
    "CommMatrix",
    "FnComm",
    "SigilConfig",
    "COLD",
    "ReuseDistanceProfiler",
    "LineRecord",
    "LineReuseProfiler",
    "ShadowStats",
    "SigilProfile",
    "SigilProfiler",
    "REUSE_BUCKET_BOUNDS",
    "REUSE_BUCKET_LABELS",
    "FnReuse",
    "ReuseStats",
    "bucketise_counts",
    "EDGE_CALL",
    "EDGE_DATA",
    "EDGE_ORDER",
    "EventArrays",
    "Segment",
    "SHADOW_PAGE_SIZE",
    "ShadowMemory",
    "ShadowPage",
]
