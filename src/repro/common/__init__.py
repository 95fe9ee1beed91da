"""Structures shared by multiple tools (calling-context tree, ...)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.common.cct": (
        "INVALID_CTX", "ROOT_NAME", "ContextNode", "ContextTree",
    ),
})
