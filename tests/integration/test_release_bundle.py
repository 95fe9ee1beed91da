"""The paper's release story, end to end.

"We will shortly release both the tool and post processing scripts ... In
addition, we plan to release the profile data for many commonly used
benchmarks.  As these profiles are platform independent, researchers can use
the data without running Sigil." (section VI)

This test builds that release bundle -- profiles, event files and
callgrind-equivalent profiles for the whole suite -- then runs every
post-processing study purely from the files.
"""

from __future__ import annotations

import pytest

from repro import SigilConfig, profile_workload
from repro.analysis import (
    analyze_critical_path,
    byte_reuse_breakdown,
    coverage_report,
    render_calltree,
    top_reuse_functions,
    trim_calltree,
)
from repro.io import (
    dump_callgrind,
    dump_events_bin,
    dump_profile,
    load_callgrind,
    load_event_arrays,
    load_profile,
)

BUNDLE = ("blackscholes", "canneal", "streamcluster", "vips")


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("release-bundle")
    for name in BUNDLE:
        run = profile_workload(
            name, "simsmall",
            config=SigilConfig(reuse_mode=True, event_mode=True),
        )
        dump_profile(run.sigil, root / f"{name}.profile")
        dump_events_bin(run.sigil.events, root / f"{name}.events")
        dump_callgrind(run.callgrind, root / f"{name}.cg")
    return root


class TestOfflineStudies:
    def test_bundle_complete(self, bundle_dir):
        for name in BUNDLE:
            for suffix in (".profile", ".events", ".cg"):
                assert (bundle_dir / f"{name}{suffix}").exists()

    def test_partitioning_study_from_files(self, bundle_dir):
        for name in BUNDLE:
            sigil = load_profile(bundle_dir / f"{name}.profile")
            callgrind = load_callgrind(bundle_dir / f"{name}.cg")
            trimmed = trim_calltree(sigil, callgrind)
            report = coverage_report(name, trimmed)
            assert trimmed.candidates
            assert 0.0 < report.coverage <= 1.0

    def test_reuse_study_from_files(self, bundle_dir):
        for name in BUNDLE:
            sigil = load_profile(bundle_dir / f"{name}.profile")
            breakdown = byte_reuse_breakdown(sigil)
            assert sum(breakdown.values()) == pytest.approx(1.0)
        vips = load_profile(bundle_dir / "vips.profile")
        labels = {r.label for r in top_reuse_functions(vips, n=6)}
        assert any(label.startswith("conv_gen") for label in labels)

    def test_critical_path_study_from_files(self, bundle_dir):
        values = {}
        for name in BUNDLE:
            events = load_event_arrays(bundle_dir / f"{name}.events")
            values[name] = analyze_critical_path(events).max_parallelism
        assert values["streamcluster"] > values["vips"]

    def test_calltree_render_from_files(self, bundle_dir):
        sigil = load_profile(bundle_dir / "canneal.profile")
        tree = render_calltree(sigil)
        assert "mul" in tree

    def test_bundle_matches_fresh_run(self, bundle_dir):
        """Offline results must equal a fresh live run bit for bit."""
        from repro.io import dumps_profile

        fresh = profile_workload(
            "canneal", "simsmall",
            config=SigilConfig(reuse_mode=True, event_mode=True),
        )
        stored = (bundle_dir / "canneal.profile").read_text()
        assert dumps_profile(fresh.sigil) == stored
