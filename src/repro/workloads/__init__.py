"""Synthetic PARSEC-like workload suite (plus SPEC libquantum)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.base": ("InputSize", "Workload"),
    "repro.workloads.registry": (
        "ALL_NAMES", "PARSEC_NAMES", "WORKLOADS", "get_workload",
    ),
})
