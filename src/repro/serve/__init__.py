"""Profiling-as-a-service: the ``repro serve`` daemon.

This package turns the campaign engine into a long-running shared service:
jobs arrive over HTTP (``POST /jobs`` with a CampaignSpec-style body), run
through :func:`repro.campaign.run_campaign` against the content-addressed
:class:`~repro.campaign.store.ResultStore` (warm requests are pure cache
hits), and every lifecycle transition is observable three ways:

* a per-job, sequence-numbered JSONL **trace file** that ``repro watch``
  tails (:mod:`repro.serve.sse` owns the channel, the campaign journal
  stays the durability layer);
* a live **SSE stream** per job (``GET /jobs/<id>/events``) with
  resume-from-``Last-Event-ID``;
* a **Prometheus** text-exposition ``GET /metrics`` endpoint fed by
  :class:`~repro.telemetry.MetricRegistry` (:mod:`repro.serve.promfmt`).

Everything is standard library: ``http.server`` threads, ``queue`` fan-out,
and the lock-guarded JSONL appends the campaign engine already uses.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.app": ("ReproServer", "create_server", "serve_forever"),
    "repro.serve.jobs": ("JobManager", "ServeJob", "TERMINAL_EVENTS"),
    "repro.serve.promfmt": ("ServeMetrics", "render_prometheus"),
    "repro.serve.sse": ("EventBroker", "JobChannel", "format_sse"),
})
