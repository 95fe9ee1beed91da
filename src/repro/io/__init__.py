"""Profile and event-file persistence."""

from repro.io.callgrindfile import (
    dump_callgrind,
    dumps_callgrind,
    load_callgrind,
    loads_callgrind,
)
from repro.io.eventbin import (
    BinaryEventWriter,
    dump_events_bin,
    dumps_events_bin,
    iter_event_chunks,
    load_event_arrays,
)
from repro.io.eventfile import dump_events, dumps_events
from repro.io.kcachegrind import export_callgrind, export_sigil
from repro.io.profilefile import (
    dump_profile,
    dumps_profile,
    load_profile,
    loads_profile,
)
from repro.io.tracefmt import (
    curves_to_chrome,
    dump_chrome,
    dump_collapsed,
    dumps_chrome,
    dumps_collapsed,
    events_to_chrome,
    manifest_to_chrome,
    profile_to_collapsed,
    spans_to_chrome,
)

__all__ = [
    "dump_callgrind",
    "dumps_callgrind",
    "load_callgrind",
    "loads_callgrind",
    "BinaryEventWriter",
    "dump_events",
    "dump_events_bin",
    "dumps_events",
    "dumps_events_bin",
    "export_callgrind",
    "export_sigil",
    "iter_event_chunks",
    "load_event_arrays",
    "dump_profile",
    "dumps_profile",
    "load_profile",
    "loads_profile",
    "curves_to_chrome",
    "dump_chrome",
    "dump_collapsed",
    "dumps_chrome",
    "dumps_collapsed",
    "events_to_chrome",
    "manifest_to_chrome",
    "profile_to_collapsed",
    "spans_to_chrome",
]
