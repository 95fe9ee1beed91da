"""The daemon over real sockets: routing, SSE resume, metrics, concurrency."""

from __future__ import annotations

import json
import multiprocessing
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import create_server
from tests.serve.test_promfmt import assert_valid_exposition

_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not _FORK, reason="campaign workers need the fork start method"
)

_CELL = {"workload": "blackscholes", "size": "simsmall", "tool": "native"}


@pytest.fixture()
def server(tmp_path):
    srv = create_server(tmp_path, workers=2, concurrency=2)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.manager.shutdown(wait=True)
    srv.server_close()
    thread.join(timeout=5)


def _base(server) -> str:
    host, port = server.server_address[0], server.server_address[1]
    return f"http://{host}:{port}"


def _get(url, **kwargs):
    with urllib.request.urlopen(url, timeout=30, **kwargs) as resp:
        return resp.status, resp.headers, resp.read()


def _get_json(url):
    status, _headers, body = _get(url)
    return status, json.loads(body)


def _post_json(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _read_sse(url, last_event_id=None):
    """Consume one SSE stream to its end; returns the decoded records."""
    headers = {}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    req = urllib.request.Request(url, headers=headers)
    records = []
    with urllib.request.urlopen(req, timeout=60) as resp:
        assert resp.headers["Content-Type"] == "text/event-stream"
        for raw in resp:
            line = raw.decode().rstrip("\n")
            if line.startswith("data: "):
                records.append(json.loads(line[len("data: "):]))
    return records


class TestRouting:
    def test_index_healthz_and_unknown(self, server):
        base = _base(server)
        status, doc = _get_json(base + "/")
        assert status == 200 and doc["service"] == "repro-serve"
        status, doc = _get_json(base + "/healthz")
        assert status == 200 and doc["ok"] is True
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base + "/no/such/thing")
        assert err.value.code == 404
        assert "error" in json.loads(err.value.read())

    def test_jobs_empty_and_unknown_job(self, server):
        base = _base(server)
        status, doc = _get_json(base + "/jobs")
        assert status == 200 and doc["jobs"] == []
        for suffix in ("/jobs/job-000042", "/jobs/job-000042/events",
                       "/jobs/job-000042/curves"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base + suffix)
            assert err.value.code == 404

    @pytest.mark.parametrize("payload,code", [
        ({"workload": "vips", "bogus": 1}, 400),
        (["not", "an", "object"], 400),
        ({"workloads": []}, 400),
        ({"workloads": ["blackscholes"], "local_workers": 2}, 400),
        ({"workload": "vips", "config": {"track_unread_writes": True}}, 400),
    ])
    def test_bad_submissions_are_400(self, server, payload, code):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(_base(server) + "/jobs", payload)
        assert err.value.code == code

    def test_non_json_body_is_400(self, server):
        req = urllib.request.Request(
            _base(server) + "/jobs", data=b"\xff\xfenot json")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_post_to_wrong_path_is_404(self, server):
        req = urllib.request.Request(
            _base(server) + "/healthz", data=b"{}")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 404

    def test_metrics_scrape_is_valid_when_idle(self, server):
        status, headers, body = _get(_base(server) + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert_valid_exposition(body.decode())


@needs_fork
class TestEndToEnd:
    def test_cold_job_then_warm_cache_hit_visible_in_metrics(self, server):
        base = _base(server)
        status, accepted = _post_json(base + "/jobs", _CELL)
        assert status == 202
        job_id = accepted["job"]
        assert accepted["events_url"] == f"/jobs/{job_id}/events"
        assert server.manager.wait(job_id, timeout=60)

        status, doc = _get_json(base + f"/jobs/{job_id}")
        assert doc["state"] == "done"
        assert doc["result"]["executed"] == 1
        assert doc["campaign"]["schema"] == "repro-campaign/1"

        records = _read_sse(base + accepted["events_url"])
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(1, len(records) + 1))
        assert records[-1]["event"] == "completed"
        assert records[-1]["state"] == "done"

        # Warm resubmission: same body, zero execution.
        status, again = _post_json(base + "/jobs", _CELL)
        assert server.manager.wait(again["job"], timeout=60)
        status, doc = _get_json(base + "/jobs/" + again["job"])
        assert doc["result"] == dict(
            doc["result"], cached=1, executed=0, ok=True
        )

        _status, _headers, body = _get(base + "/metrics")
        text = body.decode()
        assert_valid_exposition(text)
        lines = text.splitlines()
        assert "repro_store_cache_hits_total 1" in lines
        assert "repro_store_cache_misses_total 1" in lines
        assert "repro_serve_jobs_submitted_total 2" in lines
        assert 'repro_serve_jobs_completed_total{status="done"} 2' in lines

    def test_curves_endpoint_serves_cached_windowed_curves(self, server):
        base = _base(server)
        body = {"workload": "blackscholes", "size": "simsmall",
                "tool": "sigil", "config": {"event_mode": True}}
        _status, accepted = _post_json(base + "/jobs", body)
        job_id = accepted["job"]
        assert server.manager.wait(job_id, timeout=120)

        status, doc = _get_json(base + f"/jobs/{job_id}/curves")
        assert status == 200
        assert doc["job"] == job_id and doc["state"] == "done"
        assert len(doc["cells"]) == 1
        (cell,) = doc["cells"].values()
        curves = cell["curves"]
        assert curves["schema"] == "repro-windowed/1"
        assert curves["n_windows"] == len(curves["ws_bytes"]) > 0
        assert curves["total_segments"] > 0

    def test_curves_null_for_cells_without_event_logs(self, server):
        base = _base(server)
        _status, accepted = _post_json(base + "/jobs", _CELL)  # native tool
        job_id = accepted["job"]
        assert server.manager.wait(job_id, timeout=60)
        status, doc = _get_json(base + f"/jobs/{job_id}/curves")
        assert status == 200
        (cell,) = doc["cells"].values()
        assert cell["curves"] is None
        assert cell["label"]

    def test_sse_resume_from_last_event_id(self, server):
        base = _base(server)
        _status, accepted = _post_json(base + "/jobs", _CELL)
        job_id = accepted["job"]
        assert server.manager.wait(job_id, timeout=60)
        full = _read_sse(base + f"/jobs/{job_id}/events")
        assert len(full) >= 4
        middle = full[len(full) // 2]["seq"]
        resumed = _read_sse(base + f"/jobs/{job_id}/events",
                            last_event_id=middle)
        assert [r["seq"] for r in resumed] == \
            [r["seq"] for r in full if r["seq"] > middle]
        # The ?after= query form behaves identically.
        via_query = _read_sse(base + f"/jobs/{job_id}/events?after={middle}")
        assert via_query == resumed

    def test_scrapes_stay_valid_while_jobs_run(self, server):
        base = _base(server)
        stop = threading.Event()
        failures = []

        def scraper():
            while not stop.is_set():
                try:
                    _status, _headers, body = _get(base + "/metrics")
                    assert_valid_exposition(body.decode())
                except Exception as exc:  # noqa: BLE001 - collect for assert
                    failures.append(exc)
                    return

        scrapers = [threading.Thread(target=scraper) for _ in range(3)]
        for t in scrapers:
            t.start()
        try:
            ids = []
            for workload in ("blackscholes", "streamcluster", "blackscholes"):
                _status, accepted = _post_json(
                    base + "/jobs", dict(_CELL, workload=workload))
                ids.append(accepted["job"])
            for job_id in ids:
                assert server.manager.wait(job_id, timeout=120)
        finally:
            stop.set()
            for t in scrapers:
                t.join(timeout=10)
        assert not failures
        for job_id in ids:
            _status, doc = _get_json(base + f"/jobs/{job_id}")
            assert doc["state"] == "done"
            records = _read_sse(base + f"/jobs/{job_id}/events")
            seqs = [r["seq"] for r in records]
            assert seqs == list(range(1, len(records) + 1))
