"""Profile and event-file persistence."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.io.callgrindfile": (
        "dump_callgrind", "dumps_callgrind", "load_callgrind",
        "loads_callgrind",
    ),
    "repro.io.eventbin": (
        "BinaryEventWriter", "dump_events_bin", "dumps_events_bin",
        "iter_event_chunks", "load_event_arrays",
    ),
    "repro.io.eventfile": ("dump_events", "dumps_events"),
    "repro.io.kcachegrind": ("export_callgrind", "export_sigil"),
    "repro.io.profilefile": (
        "dump_profile", "dumps_profile", "load_profile", "loads_profile",
    ),
    "repro.io.tracefmt.chrome": (
        "curves_to_chrome", "dump_chrome", "dumps_chrome", "events_to_chrome",
        "manifest_to_chrome", "spans_to_chrome",
    ),
    "repro.io.tracefmt.collapsed": (
        "dump_collapsed", "dumps_collapsed", "profile_to_collapsed",
    ),
})
