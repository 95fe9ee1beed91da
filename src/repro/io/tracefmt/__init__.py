"""Trace-export renderers: standard visual formats for Sigil output.

The paper's second output representation -- "the execution as a list of
function calls connected by data transfer edges" (section I) -- *is* a
timeline; this package renders it (and the reproduction's own pipeline
telemetry) in formats existing tools open unmodified:

* :mod:`repro.io.tracefmt.chrome` -- Chrome trace-event JSON, loadable in
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: compute
  segments as duration events on per-context tracks, ``data`` edges as flow
  arrows carrying byte counts, counter tracks for cumulative traffic and
  the windowed curves (kept as columns until the one encoder,
  ``dumps_chrome``, writes them), and pipeline phase spans from
  :mod:`repro.telemetry`.
* :mod:`repro.io.tracefmt.collapsed` -- collapsed-stack flamegraphs
  (speedscope / Brendan Gregg's ``flamegraph.pl``) from a
  :class:`~repro.core.profiler.SigilProfile` calling-context tree, weighted
  by ops or by the paper's communication byte classes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.io.tracefmt.chrome": (
        "PIPELINE_PID", "CounterTrack", "curves_to_chrome", "dump_chrome",
        "dumps_chrome", "events_to_chrome", "manifest_to_chrome",
        "spans_to_chrome", "synthesize_spans",
    ),
    "repro.io.tracefmt.collapsed": (
        "COLLAPSED_WEIGHTS", "dump_collapsed", "dumps_collapsed",
        "profile_to_collapsed",
    ),
})
