"""Result store: atomic publication, round-trips, byte-identical hits."""

from __future__ import annotations

import multiprocessing

from repro.campaign import Job, ResultStore
from repro.core import SigilConfig
from repro.harness import profile_workload
from repro.io.profilefile import dumps_profile
from repro.telemetry import Telemetry


def _full(name="blackscholes", size="simsmall"):
    job = Job(workload=name, size=size, tool="sigil+callgrind",
              config={"reuse_mode": True, "event_mode": True})
    run = profile_workload(
        name, size, config=SigilConfig(reuse_mode=True, event_mode=True),
        telemetry=Telemetry(),
    )
    return job, run


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        job, run = _full()
        assert not store.has(job.key)
        assert store.get(job.key) is None
        store.put_run(job, run)
        assert store.has(job.key)
        assert store.keys() == [job.key]
        assert store.size_bytes() > 0

    def test_round_trip_preserves_analyses(self, tmp_path):
        store = ResultStore(tmp_path)
        job, run = _full()
        store.put_run(job, run)
        back = store.get(job.key).profiled_run()

        assert back.name == run.name
        assert back.size == run.size
        assert back.sigil.total_time == run.sigil.total_time
        assert len(back.sigil.contexts()) == len(run.sigil.contexts())
        # Communication totals survive the round trip.
        orig = {(w, r): (e.unique_bytes, e.nonunique_bytes)
                for (w, r), e in run.sigil.comm.items()}
        loaded = {(w, r): (e.unique_bytes, e.nonunique_bytes)
                  for (w, r), e in back.sigil.comm.items()}
        assert orig == loaded
        # The event log rides along for critical-path studies.
        assert back.sigil.events is not None
        assert back.sigil.events.n_segments == run.sigil.events.n_segments
        # The callgrind half is present for partitioning joins.
        assert back.callgrind is not None
        # Phase seconds come back from the meta record.
        assert back.execute_seconds == run.execute_seconds

    def test_cache_hits_are_byte_identical(self, tmp_path):
        """Two independent computations of the same key serialise equal."""
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        job1, run1 = _full()
        job2, run2 = _full()
        assert job1.key == job2.key
        a = store_a.put_run(job1, run1)
        b = store_b.put_run(job2, run2)
        assert a.profile_path().read_bytes() == b.profile_path().read_bytes()
        assert a.meta["profile_sha256"] == b.meta["profile_sha256"]
        # And reserialising the loaded profile reproduces the same bytes.
        assert dumps_profile(a.load_profile()).encode() == \
            a.profile_path().read_bytes()

    def test_verify_detects_tampering(self, tmp_path):
        store = ResultStore(tmp_path)
        job, run = _full()
        stored = store.put_run(job, run)
        assert stored.verify()
        stored.profile_path().write_text("# sigil-profile 1\ntime 0\n")
        assert not store.get(job.key).verify()

    def test_put_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        job, run = _full()
        first = store.put_run(job, run)
        again = store.put_run(job, run)
        assert first.meta["created_unix"] == again.meta["created_unix"]
        assert len(store.keys()) == 1

    def test_no_partial_entries_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        job, run = _full()
        store.put_run(job, run)
        tmp_dir = store.root / "tmp"
        assert not tmp_dir.exists() or not any(tmp_dir.iterdir())

    def test_native_run_stores_meta_only(self, tmp_path):
        store = ResultStore(tmp_path)
        job = Job(workload="blackscholes", tool="native")
        run = profile_workload("blackscholes", "simsmall",
                               with_sigil=False, with_callgrind=False)
        stored = store.put_run(job, run)
        assert stored.profile_path() is None
        back = stored.profiled_run()
        assert back.sigil is None and back.callgrind is None
        assert back.execute_seconds == run.execute_seconds
        # No event log, no cached curves.
        assert stored.curves_path() is None
        assert stored.load_curves() is None

    def test_event_mode_run_caches_windowed_curves(self, tmp_path):
        """put_run stages the time-resolved curves next to events.sigil so
        watchers (and `repro serve`) never re-stream the log per request."""
        from repro.analysis.windowed import WINDOWED_SCHEMA, windowed_curves

        store = ResultStore(tmp_path)
        job, run = _full()
        stored = store.put_run(job, run)
        path = stored.curves_path()
        assert path is not None and path.name == "windowed.json"
        cached = stored.load_curves()
        fresh = windowed_curves(run.sigil.events)
        assert cached.to_dict() == fresh.to_dict()
        assert cached.to_dict()["schema"] == WINDOWED_SCHEMA
        assert cached.total_segments == run.sigil.events.n_segments

    def test_drop_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        job, run = _full()
        store.put_run(job, run)
        assert store.drop(job.key)
        assert not store.drop(job.key)
        store.put_run(job, run)
        assert store.clear() == 1
        assert store.keys() == []


def _race_publish(root, barrier):
    job, run = _full()
    store = ResultStore(root)
    barrier.wait()  # maximise rename-collision odds
    store.put_run(job, run)


class TestConcurrentWriters:
    def test_racing_publishers_leave_one_clean_winner(self, tmp_path):
        """Two processes publish the same key; exactly one coherent entry."""
        root = tmp_path / "store"
        barrier = multiprocessing.Barrier(2)
        procs = [
            multiprocessing.Process(target=_race_publish,
                                    args=(root, barrier))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)

        store = ResultStore(root)
        job, run = _full()
        assert store.keys() == [job.key]
        winner = store.get(job.key)
        assert winner.verify()
        # the winner is byte-identical to an independent computation
        assert winner.profile_path().read_bytes() == \
            dumps_profile(run.sigil).encode()
        tmp_dir = store.root / "tmp"
        assert not tmp_dir.exists() or not any(tmp_dir.iterdir())
