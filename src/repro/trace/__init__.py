"""Trace primitives: the event stream substrates emit and tools consume."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.events": (
        "Branch", "FnEnter", "FnExit", "MemRead", "MemWrite", "Op", "OpKind",
        "SyscallEnter", "SyscallExit", "ThreadSwitch", "TraceEvent",
    ),
    "repro.trace.batch": ("DEFAULT_BATCH_SIZE", "BatchingTransport"),
    "repro.trace.observer": (
        "MEM_READ", "MEM_WRITE", "BaseObserver", "NullObserver",
        "ObserverPipe", "RecordingObserver", "TraceObserver", "replay",
    ),
})
