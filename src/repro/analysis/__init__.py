"""Post-processing of Sigil profiles: CDFGs, partitioning, reuse, critical path."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.bbcurve": ("BBCurve", "BBCurveProfiler", "BBPoint"),
    "repro.analysis.calltree": ("render_calltree",),
    "repro.analysis.cdfg": (
        "CDFG", "CallEdge", "DataEdge", "ctx_comm_from_events",
        "data_edges_from_events",
    ),
    "repro.analysis.streaming": (
        "ChunkSource", "EdgeCursor", "GrowingColumn", "SegmentColumns",
        "UnsortedEdges", "as_chunk_source", "stream_resolved",
    ),
    "repro.analysis.windowed": (
        "DEFAULT_WINDOW_OPS", "WINDOWED_SCHEMA", "WindowedCurves",
        "windowed_curves",
    ),
    "repro.analysis.coverage": ("CoverageReport", "coverage_report"),
    "repro.analysis.diff": ("ContextDelta", "ProfileDiff", "diff_profiles"),
    "repro.analysis.critical_path": (
        "CriticalPathResult", "analyze_critical_path", "events_to_dot",
    ),
    "repro.analysis.merge": (
        "InclusiveCosts", "MergedNode", "compute_inclusive",
        "inclusive_cost_table", "subtree_has_syscall",
    ),
    "repro.analysis.partition": (
        "BusModel", "Candidate", "PartitionPolicy", "TrimmedTree",
        "breakeven_speedup", "trim_calltree",
    ),
    "repro.analysis.report": (
        "format_si", "render_barchart", "render_histogram",
        "render_stacked_bars", "render_table",
    ),
    "repro.analysis.schedule": (
        "ScheduleResult", "schedule_events", "speedup_curve",
    ),
    "repro.analysis.threads": (
        "ThreadCommSummary", "per_thread_ops", "thread_comm_matrix",
    ),
    "repro.analysis.reuse_analysis": (
        "FIG8_LABELS", "ReuseRanking", "byte_reuse_breakdown",
        "lifetime_histogram", "top_reuse_functions", "top_unique_contributors",
    ),
})
