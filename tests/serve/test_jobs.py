"""JobManager lifecycle: submit, trace, cache-hit warm runs, restart resume."""

from __future__ import annotations

import json
import logging
import multiprocessing

import pytest

from repro.campaign import ResultStore
from repro.serve.jobs import JobManager, TERMINAL_EVENTS, spec_from_body

_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not _FORK, reason="campaign workers need the fork start method"
)

_CELL = {"workload": "blackscholes", "size": "simsmall", "tool": "native"}


class TestSpecFromBody:
    def test_single_cell_form(self):
        spec = spec_from_body(_CELL)
        assert len(spec) == 1
        job = spec.jobs()[0]
        assert (job.workload, job.size, job.tool) == \
            ("blackscholes", "simsmall", "native")

    def test_single_cell_defaults(self):
        spec = spec_from_body({"workload": "vips"})
        job = spec.jobs()[0]
        assert job.size == "simsmall" and job.tool == "sigil+callgrind"

    def test_campaign_form(self):
        spec = spec_from_body({
            "name": "sweep",
            "workloads": ["vips", "dedup"],
            "sizes": ["simsmall"],
            "tools": ["native"],
        })
        assert spec.name == "sweep" and len(spec) == 2

    @pytest.mark.parametrize("body,fragment", [
        ({}, "workload"),
        ({"workload": "vips", "workloads": ["vips"]}, "not both"),
        ({"workload": "vips", "bogus": 1}, "unknown job keys"),
        ({"workloads": ["vips"], "bogus": 1}, "unknown campaign keys"),
        ({"workloads": ["vips"], "local_workers": 2},
         "unknown campaign keys: local_workers;"),
        ({"workload": "vips", "local_workers": 1},
         "unknown job keys: local_workers;"),
        ({"workload": "no-such-workload"}, "no-such-workload"),
        ({"workload": "vips", "size": "huge"}, "huge"),
        ({"workload": "vips", "config": {"track_unread_writes": True}},
         "track_unread_writes"),
        ({"workload": "vips", "config": {"batch_size": 0}}, "batch_size"),
    ])
    def test_rejects_malformed_bodies(self, body, fragment):
        with pytest.raises(ValueError, match=fragment):
            spec_from_body(body)


@pytest.fixture()
def manager(tmp_path):
    mgr = JobManager(ResultStore(tmp_path), workers=2)
    yield mgr
    mgr.shutdown(wait=True)


@needs_fork
class TestLifecycle:
    def test_cold_job_runs_with_ordered_trace(self, manager):
        job = manager.submit(_CELL)
        assert manager.wait(job.id, timeout=60)
        assert job.state == "done"
        assert job.result["executed"] == 1 and job.result["cached"] == 0
        chan = manager.broker.channel(job.id)
        records = chan.events()
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(1, len(records) + 1))
        kinds = [r["event"] for r in records]
        assert kinds[0] == "submitted"
        assert "running" in kinds and "done" in kinds
        assert kinds[-1] == "completed"
        assert sum(1 for k in kinds if k in TERMINAL_EVENTS) == 1
        # The executed cell surfaced its phase timings on the stream.
        assert any(r["event"] == "phases" for r in records)

    def test_warm_resubmit_is_pure_cache_hit(self, manager):
        first = manager.submit(_CELL)
        assert manager.wait(first.id, timeout=60)
        second = manager.submit(_CELL)
        assert manager.wait(second.id, timeout=60)
        assert second.result["cached"] == 1 and second.result["executed"] == 0
        done = [r for r in manager.broker.channel(second.id).events()
                if r["event"] == "done"]
        assert done and done[0]["cached"] is True
        assert manager.metrics.cache_hits.value == 1
        assert manager.metrics.cache_misses.value == 1

    def test_detail_includes_campaign_manifest(self, manager):
        job = manager.submit(_CELL)
        assert manager.wait(job.id, timeout=60)
        doc = manager.detail(job.id)
        assert doc["state"] == "done"
        assert doc["campaign"]["schema"] == "repro-campaign/1"
        assert doc["last_seq"] == len(
            manager.broker.channel(job.id).events()
        )
        with pytest.raises(KeyError):
            manager.detail("job-999999")

    def test_invalid_submit_raises_before_any_side_effect(self, manager):
        with pytest.raises(ValueError):
            manager.submit({"workload": "vips", "bogus": 1})
        assert manager.list() == []
        assert manager.metrics.jobs_submitted.value == 0

    def test_job_ids_are_sequential_and_files_land_on_disk(self, manager):
        a = manager.submit(_CELL)
        b = manager.submit(dict(_CELL, workload="streamcluster"))
        assert (a.id, b.id) == ("job-000001", "job-000002")
        for job in (a, b):
            assert manager.wait(job.id, timeout=60)
            assert (manager.job_dir(job.id) / "request.json").exists()
            assert manager.trace_path(job.id).exists()
            assert (manager.job_dir(job.id) / "campaign"
                    / "journal.jsonl").exists()


@needs_fork
class TestRestartResume:
    def test_unfinished_job_requeues_and_completes(self, tmp_path):
        store = ResultStore(tmp_path)
        # A daemon died right after accepting this job: request.json is
        # there, the trace never reached a terminal event.
        job_dir = store.root / "serve" / "jobs" / "job-000007"
        job_dir.mkdir(parents=True)
        (job_dir / "request.json").write_text(json.dumps(
            {"body": _CELL, "submitted_unix": 123.0}
        ))
        mgr = JobManager(store, workers=2)
        try:
            assert mgr.wait("job-000007", timeout=60)
            job = mgr.get("job-000007")
            assert job.state == "done"
            assert mgr.metrics.jobs_resumed.value == 1
            events = [r["event"] for r in
                      mgr.broker.channel("job-000007").events()]
            assert "resumed" in events and events[-1] == "completed"
            # New submissions number past the recovered job.
            fresh = mgr.submit(_CELL)
            assert fresh.id == "job-000008"
            assert mgr.wait(fresh.id, timeout=60)
        finally:
            mgr.shutdown(wait=True)

    def test_finished_job_loads_read_only(self, tmp_path):
        store = ResultStore(tmp_path)
        mgr = JobManager(store, workers=2)
        job = mgr.submit(_CELL)
        assert mgr.wait(job.id, timeout=60)
        mgr.shutdown(wait=True)

        reborn = JobManager(store, workers=2)
        try:
            loaded = reborn.get(job.id)
            assert loaded is not None and loaded.state == "done"
            assert loaded.result["total"] == 1
            assert reborn.metrics.jobs_resumed.value == 0
            # Completed cells stay in the store: a resubmit is all cache.
            again = reborn.submit(_CELL)
            assert reborn.wait(again.id, timeout=60)
            assert again.result["cached"] == 1
        finally:
            reborn.shutdown(wait=True)

    def test_resume_skips_journaled_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        mgr = JobManager(store, workers=2)
        done = mgr.submit(_CELL)
        assert mgr.wait(done.id, timeout=60)
        mgr.shutdown(wait=True)
        # Kill simulation: drop the terminal events from the trace so the
        # job looks in-flight, keeping the campaign journal intact.
        trace = store.root / "serve" / "jobs" / done.id / "trace.jsonl"
        kept = [
            line for line in trace.read_text().splitlines()
            if json.loads(line)["event"] not in ("completed", "error")
        ]
        trace.write_text("\n".join(kept) + "\n")

        reborn = JobManager(store, workers=2)
        try:
            assert reborn.wait(done.id, timeout=60)
            job = reborn.get(done.id)
            assert job.state == "done"
            # The journal's completed cells were skipped, not re-run.
            assert job.result["executed"] == 0
        finally:
            reborn.shutdown(wait=True)

    def test_unparseable_old_job_is_skipped_with_one_warning(self, tmp_path):
        """A job dir whose body names a dropped key (``local_workers``)
        is skipped with one warning; the other jobs resume normally."""
        store = ResultStore(tmp_path)
        old_body = {"workloads": ["blackscholes"], "tools": ["native"],
                    "local_workers": 2}
        jobs_root = store.root / "serve" / "jobs"
        for job_id, body in (("job-000001", old_body),
                             ("job-000002", _CELL)):
            (jobs_root / job_id).mkdir(parents=True)
            (jobs_root / job_id / "request.json").write_text(json.dumps(
                {"body": body, "submitted_unix": 1.0}
            ))
        # A handler on the module logger itself: the CLI's logging setup
        # stops `repro.*` records from propagating to pytest's capture,
        # and an earlier `-q` run may have raised the namespace's level.
        warnings = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = warnings.append
        logger = logging.getLogger("repro.serve.jobs")
        old_level = logger.level
        logger.setLevel(logging.WARNING)
        logger.addHandler(handler)
        try:
            mgr = JobManager(store, workers=2)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        try:
            assert len(warnings) == 1
            assert "job-000001" in warnings[0].getMessage()
            assert "local_workers" in warnings[0].getMessage()
            assert mgr.get("job-000001") is None
            assert mgr.wait("job-000002", timeout=60)
            assert mgr.get("job-000002").state == "done"
            assert mgr.metrics.jobs_resumed.value == 1
        finally:
            mgr.shutdown(wait=True)
