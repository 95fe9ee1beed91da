"""Batch profiling campaigns: parallel, cached, resumable sweeps of runs.

The paper's whole evaluation is a sweep -- PARSEC workloads x input sizes
x tool stacks x Sigil configurations -- and this package turns that sweep
from a serial loop into an engine:

* :class:`CampaignSpec` (:mod:`repro.campaign.spec`) declares the matrix
  and expands it into content-addressed :class:`Job` objects.
* :class:`ResultStore` (:mod:`repro.campaign.store`) caches every
  completed profile on disk under its job key, so nothing is ever
  recomputed -- across campaigns, benches, and future sessions.
* :func:`run_campaign` (:mod:`repro.campaign.executor`) fans jobs out over
  isolated worker processes with per-job timeouts, bounded retry with
  exponential backoff, and crash isolation.
* :class:`CampaignState` (:mod:`repro.campaign.state`) journals every job
  transition to JSONL, making interrupted campaigns resumable.
* :mod:`repro.campaign.report` aggregates per-job telemetry manifests into
  a campaign-level manifest and renders status tables.

Quick start::

    from repro.campaign import CampaignSpec, ResultStore, run_campaign

    spec = CampaignSpec(name="sweep", workloads=["vips", "dedup"],
                        sizes=["simsmall", "simmedium"], tools=["sigil"])
    store = ResultStore("results-store")
    result = run_campaign(spec.jobs(), store, workers=4)
    print(result.summary(spec.name))   # second call: 100% cached
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.campaign.executor": (
        "DEFAULT_JITTER", "RUNNERS", "CampaignResult", "register_runner",
        "retry_delay", "run_campaign",
    ),
    "repro.campaign.report": (
        "CAMPAIGN_SCHEMA", "build_campaign_manifest", "render_status",
        "write_campaign_manifest",
    ),
    "repro.campaign.spec": ("CampaignSpec", "Job", "canonical_config"),
    "repro.campaign.state": ("CampaignState", "JobRecord", "fold_events"),
    "repro.campaign.store": (
        "DEFAULT_STORE_ENV", "ResultStore", "StoredResult", "VerifyReport",
        "default_store_root",
    ),
})
