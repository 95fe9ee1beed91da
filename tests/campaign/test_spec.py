"""Campaign spec expansion and content-addressed job keys."""

from __future__ import annotations

import pytest

import repro
from repro.campaign import CampaignSpec, Job, canonical_config


class TestJobKeys:
    def test_key_is_stable(self):
        a = Job(workload="vips", size="simsmall", tool="sigil")
        b = Job(workload="vips", size="simsmall", tool="sigil")
        assert a.key == b.key
        assert len(a.key) == 64 and int(a.key, 16) >= 0

    def test_key_varies_with_every_axis(self):
        base = Job(workload="vips", size="simsmall", tool="sigil")
        variants = [
            Job(workload="dedup", size="simsmall", tool="sigil"),
            Job(workload="vips", size="simmedium", tool="sigil"),
            Job(workload="vips", size="simsmall", tool="native"),
            Job(workload="vips", size="simsmall", tool="sigil",
                config={"reuse_mode": True}),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == 5

    def test_default_config_spellings_hash_identically(self):
        explicit = Job(workload="vips", config={"reuse_mode": False,
                                                "line_size": 1})
        implicit = Job(workload="vips")
        assert explicit.key == implicit.key

    def test_key_includes_package_version(self, monkeypatch):
        before = Job(workload="vips").key
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert Job(workload="vips").key != before

    def test_label(self):
        job = Job(workload="vips", size="simmedium", tool="native")
        assert job.label == "vips/simmedium/native"

    def test_dict_round_trip(self):
        job = Job(workload="dedup", size="simmedium", tool="sigil",
                  config={"event_mode": True})
        clone = Job.from_dict(job.to_dict())
        assert clone == job and clone.key == job.key

    def test_bad_config_field_rejected(self):
        # track_unread_writes and batch_size were SigilConfig fields until
        # they were deleted.
        for name in ("not_a_field", "track_unread_writes", "batch_size"):
            with pytest.raises(TypeError):
                canonical_config({name: 1})


class TestCampaignSpec:
    def test_expansion_is_full_cross_product(self):
        spec = CampaignSpec(
            name="sweep",
            workloads=["vips", "dedup"],
            sizes=["simsmall", "simmedium"],
            tools=["sigil", "native"],
            configs=[{}, {"reuse_mode": True}],
        )
        jobs = spec.jobs()
        assert len(jobs) == len(spec) == 16
        assert len({j.key for j in jobs}) == 16

    def test_expansion_order_is_deterministic(self):
        spec = CampaignSpec(name="s", workloads=["vips", "dedup"])
        assert [j.key for j in spec.jobs()] == [j.key for j in spec.jobs()]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workloads: doom"):
            CampaignSpec(name="s", workloads=["doom"])

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError, match="unknown tool stacks"):
            CampaignSpec(name="s", workloads=["vips"], tools=["gdb"])

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="s", workloads=["vips"], sizes=["huge"])

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="invalid campaign name"):
            CampaignSpec(name="a/b", workloads=["vips"])

    def test_json_round_trip(self, tmp_path):
        spec = CampaignSpec(
            name="rt", workloads=["vips"], sizes=["simmedium"],
            tools=["native"], configs=[{"line_size": 64}],
        )
        path = spec.save(tmp_path / "spec.json")
        loaded = CampaignSpec.load(path)
        assert loaded.to_dict() == spec.to_dict()
        assert [j.key for j in loaded.jobs()] == [j.key for j in spec.jobs()]

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict({"name": "x", "workloads": ["vips"],
                                    "colour": "red"})
